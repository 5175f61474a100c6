package tcp

import (
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
)

// checkValid verifies a raw segment's checksum under the given addresses.
func checkValid(t *testing.T, src, dst ipv4.Addr, raw []byte) {
	t.Helper()
	if ComputeChecksum(src, dst, raw) != 0 {
		t.Fatalf("checksum invalid after patch")
	}
}

func TestRawAccessorsMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for range 200 {
		s := randomSegment(rng)
		raw := Marshal(srcA, dstA, s)
		if RawSrcPort(raw) != s.SrcPort || RawDstPort(raw) != s.DstPort ||
			RawSeq(raw) != s.Seq || RawAck(raw) != s.Ack ||
			RawFlags(raw) != s.Flags || RawWindow(raw) != s.Window {
			t.Fatal("raw accessors disagree with marshaled fields")
		}
		if len(RawPayload(raw)) != len(s.Payload) {
			t.Fatal("RawPayload length mismatch")
		}
		if RawSegLen(raw) != s.Len() {
			t.Fatalf("RawSegLen = %d, want %d", RawSegLen(raw), s.Len())
		}
	}
}

// TestRawPatchesKeepChecksumValid is the core incremental-update property
// from the paper's section 3.1: every in-place field patch must leave the
// segment's checksum valid without a full recomputation.
func TestRawPatchesKeepChecksumValid(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for range 300 {
		s := randomSegment(rng)
		raw := Marshal(srcA, dstA, s)

		newSeq := Seq(rng.Uint32())
		SetRawSeq(raw, newSeq)
		checkValid(t, srcA, dstA, raw)
		if RawSeq(raw) != newSeq {
			t.Fatal("SetRawSeq did not take")
		}

		newAck := Seq(rng.Uint32())
		SetRawAck(raw, newAck)
		checkValid(t, srcA, dstA, raw)

		SetRawWindow(raw, uint16(rng.Intn(65536)))
		checkValid(t, srcA, dstA, raw)

		SetRawSrcPort(raw, uint16(rng.Intn(65536)))
		SetRawDstPort(raw, uint16(rng.Intn(65536)))
		checkValid(t, srcA, dstA, raw)
	}
}

// TestPatchPseudoAddr mirrors the secondary bridge's address translation:
// after rewriting the IP destination and patching, the checksum verifies
// under the new pseudo-header.
func TestPatchPseudoAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	aS := ipv4.MustParseAddr("10.0.1.2")
	for range 200 {
		s := randomSegment(rng)
		raw := Marshal(srcA, dstA, s)
		PatchPseudoAddr(raw, dstA, aS)
		checkValid(t, srcA, aS, raw)
	}
}

// TestInsertStripOrigDstRoundTrip covers the diversion option: the inserted
// block must parse once the diverted segment is sealed for its hop, and
// stripping must restore the original segment byte for byte, the checksum
// field aside.
func TestInsertStripOrigDstRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	aP := dstA
	aS := ipv4.MustParseAddr("10.0.1.2")
	client := srcA
	for range 300 {
		s := randomSegment(rng)
		// The secondary's TCP layer never emits original-destination
		// options itself; drop any the generator added.
		opts := s.Options[:0]
		for _, o := range s.Options {
			if o.Kind != OptOrigDst {
				opts = append(opts, o)
			}
		}
		s.Options = opts
		// Secondary output: headed for the client, from aS.
		orig := Marshal(aS, client, s)

		diverted, err := divertedCopy(orig, client)
		if err != nil {
			t.Fatal(err)
		}
		SealChecksum(aS, aP, diverted)
		if got, ok := mustSeg(t, aS, aP, diverted).OrigDst(); !ok || got != client {
			t.Fatalf("OrigDst = %v %v", got, ok)
		}
		// Payload preserved.
		if string(RawPayload(diverted)) != string(s.Payload) {
			t.Fatal("payload damaged by insertion")
		}

		// Primary inbound: strip and verify the client address comes back,
		// with the secondary's segment byte for byte but for the checksum
		// field, which still holds the diverted segment's.
		want := append([]byte(nil), orig...)
		putU16(want[16:], RawChecksum(diverted))
		stripped, gotOrig, ok := StripOrigDstOptionInPlace(diverted)
		if !ok {
			t.Fatal("option not found on diverted segment")
		}
		if gotOrig != client {
			t.Fatalf("stripped orig = %v, want %v", gotOrig, client)
		}
		if string(stripped) != string(want) {
			t.Fatalf("stripped segment % x, want % x", stripped, want)
		}
	}
}

// divertedCopy is AppendOrigDstOption's output for raw, copied out of the
// pooled buffer it was built in.
func divertedCopy(raw []byte, orig ipv4.Addr) ([]byte, error) {
	pkt := netbuf.Get()
	defer pkt.Release()
	out, err := AppendOrigDstOption(pkt, raw, orig)
	return append([]byte(nil), out...), err
}

func mustSeg(t *testing.T, src, dst ipv4.Addr, raw []byte) *Segment {
	t.Helper()
	s, err := Unmarshal(src, dst, raw, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStripWithoutOptionReportsFalse(t *testing.T) {
	raw := Marshal(srcA, dstA, &Segment{Flags: FlagACK, Options: []Option{MSSOption(1460)}})
	out, _, ok := StripOrigDstOptionInPlace(raw)
	if ok {
		t.Error("reported an option on a segment without one")
	}
	if len(out) != len(raw) {
		t.Error("segment modified despite no option")
	}
}

func TestClampRawMSS(t *testing.T) {
	s := &Segment{Flags: FlagSYN, Options: []Option{MSSOption(1460)}}
	raw := Marshal(srcA, dstA, s)
	if !ClampRawMSS(raw, 8) {
		t.Fatal("MSS option not found")
	}
	checkValid(t, srcA, dstA, raw)
	if mss, _ := mustSeg(t, srcA, dstA, raw).MSS(); mss != 1452 {
		t.Errorf("clamped MSS = %d, want 1452", mss)
	}

	// Clamping never goes below the 64-byte floor.
	s = &Segment{Flags: FlagSYN, Options: []Option{MSSOption(70)}}
	raw = Marshal(srcA, dstA, s)
	ClampRawMSS(raw, 8)
	checkValid(t, srcA, dstA, raw)
	if mss, _ := mustSeg(t, srcA, dstA, raw).MSS(); mss != 64 {
		t.Errorf("floored MSS = %d, want 64", mss)
	}

	// Segment without an MSS option.
	raw = Marshal(srcA, dstA, &Segment{Flags: FlagACK})
	if ClampRawMSS(raw, 8) {
		t.Error("reported an MSS option on a bare segment")
	}
}

func TestInsertOrigDstRejectsFullHeader(t *testing.T) {
	// Fill the options area to the 40-byte maximum (10 x 4-byte MSS).
	opts := make([]Option, 10)
	for i := range opts {
		opts[i] = MSSOption(1460)
	}
	raw := Marshal(srcA, dstA, &Segment{Flags: FlagSYN, Options: opts})
	if _, err := divertedCopy(raw, srcA); err == nil {
		t.Error("insertion into a full header succeeded")
	}
}
