package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"tcpfailover/internal/ipv4"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the segment parser and checks
// the parse → marshal → parse round trip: whatever Unmarshal accepts,
// Marshal must re-encode into a checksum-valid segment that parses back to
// the identical Segment. The parser must reject or accept — never panic —
// and the raw accessors must agree with the parsed header fields.
func FuzzWireRoundTrip(f *testing.F) {
	src, dst := ipv4.Addr(0x0a000001), ipv4.Addr(0x0a000002)
	seed := func(s *Segment) {
		f.Add(uint32(src), uint32(dst), Marshal(src, dst, s))
	}
	seed(&Segment{SrcPort: 49152, DstPort: 9000, Seq: 1, Flags: FlagSYN,
		Window: 65535, Options: []Option{MSSOption(1460)}})
	seed(&Segment{SrcPort: 9000, DstPort: 49152, Seq: 100, Ack: 2,
		Flags: FlagACK | FlagPSH, Window: 8192, Payload: []byte("hello")})
	seed(&Segment{SrcPort: 9000, DstPort: 49152, Seq: 7, Ack: 3,
		Flags: FlagACK | FlagFIN, Window: 1,
		Options: []Option{{Kind: OptOrigDst, Data: []byte{10, 0, 0, 3}}}})
	f.Add(uint32(1), uint32(2), []byte{0, 1, 2})
	f.Add(uint32(0), uint32(0), bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, srcU, dstU uint32, b []byte) {
		src, dst := ipv4.Addr(srcU), ipv4.Addr(dstU)
		seg, err := Unmarshal(src, dst, b, false)
		if err != nil {
			return // rejected without panicking: fine
		}
		// The raw in-place accessors must agree with the parser.
		if RawSrcPort(b) != seg.SrcPort || RawDstPort(b) != seg.DstPort {
			t.Fatalf("raw ports %d,%d != parsed %d,%d",
				RawSrcPort(b), RawDstPort(b), seg.SrcPort, seg.DstPort)
		}

		wire := Marshal(src, dst, seg)
		if ComputeChecksum(src, dst, wire) != 0 {
			t.Fatalf("Marshal produced an invalid checksum: % x", wire)
		}
		seg2, err := Unmarshal(src, dst, wire, true)
		if err != nil {
			t.Fatalf("re-parse of marshaled segment failed: %v (wire % x)", err, wire)
		}
		// Clear fields that legitimately differ in representation: the
		// re-marshaled payload is a fresh slice.
		if !bytes.Equal(seg.Payload, seg2.Payload) {
			t.Fatalf("payload changed: % x -> % x", seg.Payload, seg2.Payload)
		}
		seg.Payload, seg2.Payload = nil, nil
		if !reflect.DeepEqual(seg, seg2) {
			t.Fatalf("segment changed across round trip:\n first %+v\nsecond %+v", seg, seg2)
		}
	})
}

// FuzzSealChecksumFrom: for any header and payload, the split seal stores the
// field SealChecksum does (checkSplitSeal). The header is the input's first
// 20 + 4*(words%11) bytes, zero-padded; the payload is the rest.
func FuzzSealChecksumFrom(f *testing.F) {
	f.Add(uint8(0), []byte("a header of twenty bytes, then an odd payload"))
	f.Add(uint8(2), make([]byte, 28+1460))
	f.Add(uint8(10), bytes.Repeat([]byte{0xff}, 60+1459))
	f.Fuzz(func(t *testing.T, words uint8, data []byte) {
		hdr := make([]byte, HeaderLen+4*int(words%11))
		checkSplitSeal(t, hdr, data[copy(hdr, data):])
	})
}
