package tcp

import (
	"bytes"
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
)

var (
	srcA = ipv4.MustParseAddr("10.0.2.1")
	dstA = ipv4.MustParseAddr("10.0.1.1")
)

func randomSegment(rng *rand.Rand) *Segment {
	s := &Segment{
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Seq:     Seq(rng.Uint32()),
		Ack:     Seq(rng.Uint32()),
		Flags:   Flags(rng.Intn(64)),
		Window:  uint16(rng.Intn(65536)),
		Payload: make([]byte, rng.Intn(200)),
	}
	rng.Read(s.Payload)
	if rng.Intn(2) == 0 {
		s.Options = append(s.Options, MSSOption(uint16(rng.Intn(65536))))
	}
	if rng.Intn(3) == 0 {
		s.Options = append(s.Options, OrigDstOption(ipv4.Addr(rng.Uint32())))
	}
	return s
}

func segmentsEqual(a, b *Segment) bool {
	if a.SrcPort != b.SrcPort || a.DstPort != b.DstPort || a.Seq != b.Seq ||
		a.Ack != b.Ack || a.Flags != b.Flags || a.Window != b.Window ||
		!bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	am, aok := a.MSS()
	bm, bok := b.MSS()
	if aok != bok || am != bm {
		return false
	}
	ao, aook := a.OrigDst()
	bo, book := b.OrigDst()
	return aook == book && ao == bo
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for range 500 {
		s := randomSegment(rng)
		raw := Marshal(srcA, dstA, s)
		got, err := Unmarshal(srcA, dstA, raw, true)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !segmentsEqual(s, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for range 200 {
		s := randomSegment(rng)
		raw := Marshal(srcA, dstA, s)
		// Flip one random bit.
		i := rng.Intn(len(raw))
		raw[i] ^= 1 << uint(rng.Intn(8))
		if _, err := Unmarshal(srcA, dstA, raw, true); err == nil {
			// A flipped bit in a NOP pad can escape the offset check but
			// never the checksum.
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestChecksumCoversPseudoHeader(t *testing.T) {
	s := &Segment{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	raw := Marshal(srcA, dstA, s)
	if _, err := Unmarshal(srcA, dstA, raw, true); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	// The same bytes with a different pseudo-header destination must fail —
	// this is why the bridges patch the checksum when translating addresses.
	other := ipv4.MustParseAddr("10.0.1.2")
	if _, err := Unmarshal(srcA, other, raw, true); err == nil {
		t.Error("segment accepted under the wrong destination address")
	}
}

// checkSplitSeal seals hdr+payload twice and wants the same checksum field,
// bit for bit — the pcap output and the digests read the field, so merely
// verifying is not enough: SealChecksum over every byte, and
// SealChecksumFrom with the payload sum VerifyChecksum took off the same
// payload under another header (the primary bridge's path from the
// secondary's diverted segment to the client's). hdr's data offset is set
// from its length; its checksum field may hold anything.
func checkSplitSeal(t testing.TB, hdr, payload []byte) {
	t.Helper()
	segment := func(h []byte) []byte {
		b := append(append([]byte(nil), h...), payload...)
		b[12] = byte(len(h)/4) << 4
		return b
	}
	diverted, err := divertedCopy(segment(make([]byte, HeaderLen)), srcA)
	if err != nil {
		t.Fatal(err)
	}
	SealChecksum(dstA, srcA, diverted)
	sum, ok := VerifyChecksum(dstA, srcA, diverted)
	if !ok {
		t.Fatalf("header %d, payload %d: a sealed segment fails VerifyChecksum", len(hdr), len(payload))
	}
	out := segment(hdr)
	SealChecksum(srcA, dstA, out)
	want := RawChecksum(out)
	SealChecksumFrom(srcA, dstA, out, sum)
	if got := RawChecksum(out); got != want {
		t.Fatalf("header %d, payload %d: SealChecksumFrom stored %#04x, SealChecksum %#04x", len(hdr), len(payload), got, want)
	}
	if len(payload) > 0 {
		diverted[len(diverted)-1] ^= 0x80
		if _, ok := VerifyChecksum(dstA, srcA, diverted); ok {
			t.Fatalf("header %d, payload %d: VerifyChecksum passed a flipped bit", len(hdr), len(payload))
		}
	}
}

// TestSealChecksumFromMatchesSealChecksum runs checkSplitSeal over every
// header length (20–60) and every payload length up to one MSS, odd ones
// included, with payloads of zeros and of 0xff — the two one's-complement
// zeros — and of random bytes.
func TestSealChecksumFromMatchesSealChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	hdr, payload := make([]byte, HeaderLen+MaxOptionLen), make([]byte, 1460)
	for _, fill := range []func([]byte){
		func(b []byte) { clear(b) },
		func(b []byte) { copy(b, bytes.Repeat([]byte{0xff}, len(b))) },
		func(b []byte) { rng.Read(b) },
	} {
		for hl := HeaderLen; hl <= len(hdr); hl += 4 {
			for n := range len(payload) + 1 {
				rng.Read(hdr)
				fill(payload[:n])
				checkSplitSeal(t, hdr[:hl], payload[:n])
			}
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	if _, err := Unmarshal(srcA, dstA, make([]byte, 10), false); err == nil {
		t.Error("short segment accepted")
	}
	raw := Marshal(srcA, dstA, &Segment{Flags: FlagACK})
	raw[12] = 3 << 4 // data offset below minimum
	if _, err := Unmarshal(srcA, dstA, raw, false); err == nil {
		t.Error("bad data offset accepted")
	}
	raw = Marshal(srcA, dstA, &Segment{Flags: FlagACK})
	raw[12] = 15 << 4 // offset beyond segment
	if _, err := Unmarshal(srcA, dstA, raw, false); err == nil {
		t.Error("oversized data offset accepted")
	}
}

func TestSegLenCountsSynFin(t *testing.T) {
	tests := []struct {
		flags   Flags
		payload int
		want    int
	}{
		{FlagACK, 0, 0},
		{FlagSYN, 0, 1},
		{FlagFIN | FlagACK, 0, 1},
		{FlagSYN | FlagFIN, 0, 2},
		{FlagACK | FlagPSH, 7, 7},
		{FlagFIN | FlagACK, 7, 8},
	}
	for _, tc := range tests {
		s := &Segment{Flags: tc.flags, Payload: make([]byte, tc.payload)}
		if got := s.Len(); got != tc.want {
			t.Errorf("Len(%v,%d) = %d, want %d", tc.flags, tc.payload, got, tc.want)
		}
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "S." {
		t.Errorf("SYN|ACK = %q", got)
	}
	if got := Flags(0).String(); got != "none" {
		t.Errorf("zero flags = %q", got)
	}
}

func TestOptionsSkipUnknown(t *testing.T) {
	// An unknown option with valid length must be preserved in parsing and
	// not break MSS extraction after it.
	s := &Segment{
		Flags: FlagSYN,
		Options: []Option{
			{Kind: 99, Data: []byte{1, 2, 3}},
			MSSOption(1460),
		},
	}
	raw := Marshal(srcA, dstA, s)
	got, err := Unmarshal(srcA, dstA, raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if mss, ok := got.MSS(); !ok || mss != 1460 {
		t.Errorf("MSS after unknown option: %d %v", mss, ok)
	}
}
