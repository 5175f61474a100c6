package tcp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
)

// The header writer and the three option walkers as they stood before they
// became putHeader and nextOption, kept verbatim as the reference the
// rewritten ones are compared against. Only the function names changed.

// oracleClampRawMSS is ClampRawMSS with its own option walk.
func oracleClampRawMSS(b []byte, reduce uint16) bool {
	if !RawSane(b) {
		return false
	}
	hdrLen := RawHeaderLen(b)
	opts := b[HeaderLen:hdrLen]
	i := 0
	for i < len(opts) {
		switch opts[i] {
		case OptEnd:
			return false
		case OptNOP:
			i++
		default:
			if i+1 >= len(opts) {
				return false
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return false
			}
			if opts[i] == OptMSS && l == 4 {
				off := HeaderLen + i + 2
				old := getU16(b[off:])
				v := old - reduce
				if old < reduce+64 {
					v = 64
				}
				if v != old {
					patchBytes(b, off, []byte{byte(v >> 8), byte(v)})
				}
				return true
			}
			i += l
		}
	}
	return false
}

// oracleFindOrigDstOption is findOrigDstOption with its own option walk.
func oracleFindOrigDstOption(b []byte) (absStart, absEnd int, addr ipv4.Addr, ok bool) {
	if !RawSane(b) {
		return 0, 0, 0, false
	}
	hdrLen := RawHeaderLen(b)
	opts := b[HeaderLen:hdrLen]
	i := 0
	start, end := -1, -1
	for i < len(opts) {
		switch opts[i] {
		case OptEnd:
			i = len(opts)
		case OptNOP:
			i++
		default:
			if i+1 >= len(opts) {
				return 0, 0, 0, false
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return 0, 0, 0, false
			}
			if opts[i] == OptOrigDst && l == 6 {
				addr = ipv4.GetAddr(opts[i+2 : i+6])
				start, end = i, i+l
				// Include the two alignment NOPs preceding the option.
				for start > 0 && opts[start-1] == OptNOP && end-start < 8 {
					start--
				}
			}
			i += l
		}
	}
	if start < 0 {
		return 0, 0, 0, false
	}
	return HeaderLen + start, HeaderLen + end, addr, true
}

// oracleTakesOrigDst is the shape rule the demultiplexer applies, stated
// over the oracle's search: the block it finds is the one
// AppendOrigDstOption writes — eight bytes, the last of the option area —
// and the area before it parses cleanly and holds no other.
func oracleTakesOrigDst(b []byte) bool {
	s, e, _, ok := oracleFindOrigDstOption(b)
	if !ok || e-s != 8 || e != RawHeaderLen(b) {
		return false
	}
	prefix := bytes.Clone(b)
	prefix[12] = byte(s/4) << 4
	_, _, _, again := oracleFindOrigDstOption(prefix)
	return !again && oracleUnmarshalOptions(prefix, new(Segment)) == nil
}

// oracleMarshal is Marshal with its own header writer.
func oracleMarshal(src, dst ipv4.Addr, s *Segment) []byte {
	optLen := optionsWireLen(s.Options)
	hdrLen := HeaderLen + optLen
	b := make([]byte, hdrLen+len(s.Payload))
	putU16(b[0:], s.SrcPort)
	putU16(b[2:], s.DstPort)
	putU32(b[4:], uint32(s.Seq))
	putU32(b[8:], uint32(s.Ack))
	b[12] = byte(hdrLen/4) << 4
	b[13] = byte(s.Flags)
	putU16(b[14:], s.Window)
	putU16(b[18:], s.Urgent)
	off := HeaderLen
	for _, o := range s.Options {
		if o.Kind == OptEnd || o.Kind == OptNOP {
			b[off] = o.Kind
			off++
			continue
		}
		b[off] = o.Kind
		b[off+1] = byte(2 + len(o.Data))
		copy(b[off+2:], o.Data)
		off += 2 + len(o.Data)
	}
	for off < hdrLen {
		b[off] = OptNOP
		off++
	}
	copy(b[hdrLen:], s.Payload)
	cs := ComputeChecksum(src, dst, b)
	putU16(b[16:], cs)
	return b
}

// oracleUnmarshalOptions is UnmarshalInto's option loop, reading into s the
// option area of a segment whose data offset is already known to be sane.
func oracleUnmarshalOptions(b []byte, s *Segment) error {
	hdrLen := RawHeaderLen(b)
	opts := b[HeaderLen:hdrLen]
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEnd:
			opts = nil
		case OptNOP:
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return ErrBadOption
			}
			l := int(opts[1])
			if l < 2 || l > len(opts) {
				return ErrBadOption
			}
			data := make([]byte, l-2)
			copy(data, opts[2:l])
			s.Options = append(s.Options, Option{Kind: kind, Data: data})
			opts = opts[l:]
		}
	}
	return nil
}

// optionArea draws an option area of exactly n bytes. The families are the
// ones a forger (or a buggy peer) can produce: well-formed runs of the
// options this stack knows, a kind whose length byte is cut off by the end
// of the header, lengths below two and past the header, OptEnd in the
// middle with anything after it, duplicated MSS and original-destination
// options, the original-destination block where the secondary writes it, NOP
// runs, and plain noise.
func optionArea(r *rand.Rand, n int) []byte {
	area := make([]byte, 0, n+8)
	family := r.Intn(8)
	for len(area) < n {
		switch pick := r.Intn(10); {
		case family == 7:
			area = append(area, byte(r.Intn(256))) // noise
		case pick < 2:
			area = append(area, OptNOP)
		case pick < 4:
			area = append(area, OptMSS, 4, byte(r.Intn(256)), byte(r.Intn(256)))
		case pick < 6:
			area = append(area, OptNOP, OptNOP, OptOrigDst, 6, 10, 0, byte(r.Intn(3)), byte(r.Intn(256)))
		case pick == 6:
			// Some other kind — or a known kind at an unknown size.
			kind := []byte{OptMSS, OptOrigDst, 3, 8, 254}[r.Intn(5)]
			l := 2 + r.Intn(7)
			area = append(area, kind, byte(l))
			for i := 2; i < l; i++ {
				area = append(area, byte(r.Intn(256)))
			}
		case pick == 7 && family == 1:
			area = append(area, OptEnd)
		case pick == 7 && family == 2:
			area = append(area, byte(2+r.Intn(250)), byte(r.Intn(2))) // length 0 or 1
		case pick == 7 && family == 3:
			area = append(area, byte(2+r.Intn(250)), byte(n-len(area)+1+r.Intn(40))) // past the header
		default:
			area = append(area, OptNOP)
		}
	}
	area = area[:n] // the cut may leave a kind without its length byte, or a short option
	if family == 4 && n > 0 {
		area[n-1] = byte(2 + r.Intn(250)) // length byte missing
	}
	if (family == 5 || family == 6) && n >= 8 {
		// The block AppendOrigDstOption writes, where it writes it — unless
		// an option drawn before it runs into it.
		copy(area[n-8:], []byte{OptNOP, OptNOP, OptOrigDst, 6, 10, 0, byte(r.Intn(3)), byte(r.Intn(256))})
	}
	return area
}

// rawWithOptions builds a checksum-valid segment — random fixed header, up
// to 23 bytes of payload — around an option area a whole number of words long.
func rawWithOptions(r *rand.Rand, src, dst ipv4.Addr, area []byte) []byte {
	b := make([]byte, HeaderLen+len(area)+r.Intn(24))
	r.Read(b)
	copy(b[HeaderLen:], area)
	b[12] = byte((HeaderLen+len(area))/4) << 4
	putU16(b[16:], 0)
	SealChecksum(src, dst, b)
	return b
}

// compareRawOptions runs every option parser over b next to its oracle.
func compareRawOptions(t *testing.T, src, dst ipv4.Addr, b []byte, reduce uint16) {
	t.Helper()
	// ClampRawMSS: verdict, bytes and (incrementally patched) checksum.
	got, want := bytes.Clone(b), bytes.Clone(b)
	if g, w := ClampRawMSS(got, reduce), oracleClampRawMSS(want, reduce); g != w || !bytes.Equal(got, want) {
		t.Fatalf("ClampRawMSS(% x, %d) = %v % x, oracle %v % x", b, reduce, g, got, w, want)
	}

	// The original-destination search, and the strip built on it: the
	// oracle's search decides whether the option is present, and the shape
	// rule over it whether the strip may take it; every other shape is
	// present and rejected, and comes back whole.
	s2, e2, a2, ok2 := oracleFindOrigDstOption(b)
	takes := oracleTakesOrigDst(b)
	a1, present, wellFormed := findOrigDstOption(b)
	p, w := HasOrigDstOption(b)
	if present != ok2 || wellFormed != takes || (takes && a1 != a2) || p != present || w != wellFormed {
		t.Fatalf("findOrigDstOption(% x) = %v %v %v, oracle %v %v, shape rule %v", b, a1, present, wellFormed, a2, ok2, takes)
	}
	stripped, addr, ok := StripOrigDstOptionInPlace(bytes.Clone(b))
	switch {
	case ok != takes || (ok && addr != a2):
		t.Fatalf("strip(% x) = %v %v, oracle found %v %v, shape rule %v", b, addr, ok, a2, ok2, takes)
	case !ok && !bytes.Equal(stripped, b):
		t.Fatalf("strip without a well-formed block changed the segment: % x -> % x", b, stripped)
	case ok:
		// The checksum field is left as it was: nothing reads it.
		expect := append(bytes.Clone(b[:s2]), b[e2:]...)
		expect[12] = byte((RawHeaderLen(b)-(e2-s2))/4) << 4
		if !bytes.Equal(stripped, expect) {
			t.Fatalf("strip(% x) = % x, want % x", b, stripped, expect)
		}
	}

	// UnmarshalInto: same accept/reject decision, same options.
	var seg Segment
	err := UnmarshalInto(src, dst, b, false, &seg)
	if !RawSane(b) {
		if _, _, merr := RawMSS(b); err == nil || merr == nil {
			t.Fatalf("insane data offset accepted (% x): parse %v, RawMSS %v", b, err, merr)
		}
		return
	}
	var parsed Segment
	oerr := oracleUnmarshalOptions(b, &parsed)
	opts := parsed.Options
	if err != oerr {
		t.Fatalf("UnmarshalInto(% x) = %v, oracle %v", b, err, oerr)
	}
	if err == nil {
		if len(seg.Options) != len(opts) {
			t.Fatalf("UnmarshalInto(% x) parsed %d options, oracle %d", b, len(seg.Options), len(opts))
		}
		for i, o := range opts {
			if g := seg.Options[i]; g.Kind != o.Kind || !bytes.Equal(g.Data, o.Data) || (g.Data == nil) != (o.Data == nil) {
				t.Fatalf("UnmarshalInto(% x) option %d = %+v, oracle %+v", b, i, g, o)
			}
		}
	}

	// RawMSS is what the bridge reads where it used to parse: it must ignore
	// a SYN exactly when the parse failed, and read what Segment.MSS read.
	mss, present, merr := RawMSS(b)
	wantMSS, wantPresent := parsed.MSS()
	if (merr != nil) != (oerr != nil) || (merr == nil && (mss != wantMSS || present != wantPresent)) {
		t.Fatalf("RawMSS(% x) = %d %v %v, parse gives %d %v %v", b, mss, present, merr, wantMSS, wantPresent, oerr)
	}
}

// TestRawOptionsAgainstOracle: every parser that steps through option bytes
// with nextOption decides and writes what its own bounds checks used to,
// over option areas of every size a data offset can claim.
func TestRawOptionsAgainstOracle(t *testing.T) {
	src, dst := ipv4.Addr(0x0a000102), ipv4.Addr(0x0a000201)
	r := rand.New(rand.NewSource(19))
	areas, clamped, diverted, forged, rejected := 0, 0, 0, 0, 0
	for round := 0; round < 2000; round++ {
		for off := 5; off <= 15; off++ {
			b := rawWithOptions(r, src, dst, optionArea(r, off*4-HeaderLen))
			compareRawOptions(t, src, dst, b, uint16(r.Intn(3)*8))
			areas++
			if oracleClampRawMSS(bytes.Clone(b), 0) {
				clamped++
			}
			if _, _, _, ok := oracleFindOrigDstOption(b); oracleTakesOrigDst(b) {
				diverted++
			} else if ok {
				forged++
			}
			if oracleUnmarshalOptions(b, new(Segment)) != nil {
				rejected++
			}
		}
		// A data offset below the fixed header, or past the segment's end.
		b := rawWithOptions(r, src, dst, optionArea(r, 8))
		b[12] = byte(r.Intn(5)) << 4
		compareRawOptions(t, src, dst, b, 8)
		b[12] = 15 << 4
		compareRawOptions(t, src, dst, b[:HeaderLen+r.Intn(len(b)-HeaderLen+1)], 8)
	}
	// The generator must keep reaching every decision, not only the common one.
	t.Logf("%d option areas: %d with an MSS to clamp, %d diverted, %d forged blocks, %d malformed",
		areas, clamped, diverted, forged, rejected)
	if areas < 20000 || min(clamped, rejected) < areas/10 || min(diverted, forged) < areas/20 {
		t.Fatalf("generator degenerated: %d areas, %d clamped, %d diverted, %d forged, %d malformed",
			areas, clamped, diverted, forged, rejected)
	}
}

// randomOptionSegment draws a segment with every header field set and any mix
// of option kinds that fits the 40-byte area.
func randomOptionSegment(r *rand.Rand) *Segment {
	s := &Segment{
		SrcPort: uint16(r.Uint32()), DstPort: uint16(r.Uint32()),
		Seq: Seq(r.Uint32()), Ack: Seq(r.Uint32()),
		Flags: Flags(r.Intn(64)), Window: uint16(r.Uint32()), Urgent: uint16(r.Uint32()),
		Payload: make([]byte, r.Intn(80)),
	}
	r.Read(s.Payload)
	for room := MaxOptionLen; ; {
		var o Option
		switch r.Intn(6) {
		case 0:
			return s
		case 1:
			o = Option{Kind: OptNOP}
		case 2:
			o = Option{Kind: OptEnd}
		case 3:
			o = MSSOption(uint16(r.Uint32()))
		case 4:
			o = Option{Kind: OptOrigDst, Data: binary.BigEndian.AppendUint32(nil, r.Uint32())}
		default:
			o = Option{Kind: byte(2 + r.Intn(250)), Data: make([]byte, r.Intn(9))}
			r.Read(o.Data)
		}
		if room -= optionsWireLen([]Option{o}); room < 0 {
			return s
		}
		s.Options = append(s.Options, o)
	}
}

// TestMarshalAgainstOracle: Marshal, and MarshalReserve + SealChecksum into a
// dirty pooled buffer, both produce the bytes the old header writer did.
func TestMarshalAgainstOracle(t *testing.T) {
	src, dst := ipv4.Addr(0x0a000101), ipv4.Addr(0x0a000201)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		s := randomOptionSegment(r)
		want := oracleMarshal(src, dst, s)
		if got := Marshal(src, dst, s); !bytes.Equal(got, want) {
			t.Fatalf("Marshal(%+v) = % x, oracle % x", s, got, want)
		}
		dirty := netbuf.Get()
		for j := range dirty.Extend(len(want)) {
			dirty.Bytes()[j] = 0xa5
		}
		dirty.Release()
		pkt := netbuf.Get()
		copy(MarshalReserve(pkt, s, len(s.Payload)), s.Payload)
		SealChecksum(src, dst, pkt.Bytes())
		if !bytes.Equal(pkt.Bytes(), want) {
			t.Fatalf("MarshalReserve(%+v) = % x, oracle % x", s, pkt.Bytes(), want)
		}
		pkt.Release()
	}
}

// FuzzRawOptions runs the same comparison over arbitrary segments.
func FuzzRawOptions(f *testing.F) {
	src, dst := ipv4.Addr(0x0a000102), ipv4.Addr(0x0a000201)
	r := rand.New(rand.NewSource(3))
	for off := 5; off <= 15; off += 2 {
		f.Add(rawWithOptions(r, src, dst, optionArea(r, off*4-HeaderLen)), uint16(8))
	}
	f.Add(Marshal(src, dst, &Segment{Flags: FlagSYN, Options: []Option{MSSOption(0), MSSOption(1460)}}), uint16(8))
	f.Add([]byte{0, 1, 2}, uint16(0))
	f.Fuzz(func(t *testing.T, b []byte, reduce uint16) {
		if len(b) < HeaderLen {
			return // every raw accessor's precondition; the bridges check it first
		}
		compareRawOptions(t, src, dst, b, reduce)
	})
}
