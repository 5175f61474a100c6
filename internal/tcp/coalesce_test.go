package tcp

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestCoalesceRawAgainstUnmerged checks the GRO pair — CanCoalesceRaw's
// verdict and FinishCoalesceRaw's fix-up — against the two segments the
// merge replaces. Each trial marshals a data segment and its exact
// continuation, then either leaves the pair alone (it must merge, and the
// merged bytes must parse to what a receiver of both would have seen) or
// breaks one condition (it must not).
func TestCoalesceRawAgainstUnmerged(t *testing.T) {
	// A break edits the segments before they are marshaled (seg) or the
	// marshaled bytes (raw).
	either := func(rng *rand.Rand, a, b []byte) []byte {
		if rng.Intn(2) == 0 {
			return a
		}
		return b
	}
	breaks := []struct {
		name string
		seg  func(rng *rand.Rand, a, b *Segment)
		raw  func(rng *rand.Rand, a, b []byte) ([]byte, []byte)
	}{
		{name: "flag", seg: func(rng *rand.Rand, a, b *Segment) {
			f := []Flags{FlagSYN, FlagFIN, FlagRST, FlagURG, 0x40, 0x80}[rng.Intn(6)]
			if rng.Intn(2) == 0 {
				a.Flags |= f
			} else {
				b.Flags |= f
			}
		}},
		{name: "sequence gap", seg: func(rng *rand.Rand, _, b *Segment) {
			d := 1 + rng.Intn(1500)
			b.Seq = b.Seq.Add([]int{d, -d, 1 << 31}[rng.Intn(3)])
		}},
		{name: "option bytes", seg: func(rng *rand.Rand, _, b *Segment) {
			b.Options = []Option{{Kind: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, byte(1 + rng.Intn(255))}}}
		}},
		{name: "option length", seg: func(_ *rand.Rand, _, b *Segment) {
			b.Options = append(b.Options[:len(b.Options):len(b.Options)], MSSOption(1460))
		}},
		{name: "bare ack", seg: func(_ *rand.Rand, _, b *Segment) { b.Payload = nil }},
		{name: "port", seg: func(rng *rand.Rand, _, b *Segment) {
			if rng.Intn(2) == 0 {
				b.SrcPort++
			} else {
				b.DstPort--
			}
		}},
		{name: "short", raw: func(rng *rand.Rand, a, b []byte) ([]byte, []byte) {
			if rng.Intn(2) == 0 {
				return a[:rng.Intn(HeaderLen)], b
			}
			return a, b[:rng.Intn(HeaderLen)]
		}},
		{name: "lying header length", raw: func(rng *rand.Rand, a, b []byte) ([]byte, []byte) {
			lie := rng.Intn(5) // below the fixed header
			if short := either(rng, a, b); rng.Intn(2) == 0 && len(short) < 60 {
				lie = len(short)/4 + 1 // past the end of one of them
			}
			// Half the time both lie alike: equal lengths are not enough.
			if rng.Intn(2) == 0 {
				a[12], b[12] = byte(lie<<4), byte(lie<<4)
			} else {
				either(rng, a, b)[12] = byte(lie << 4)
			}
			return a, b
		}},
	}

	merged, refused := 0, make([]int, len(breaks))
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 6000; trial++ {
		a := &Segment{SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Seq: Seq(rng.Uint32()), Ack: Seq(rng.Uint32()), Flags: FlagACK, Window: uint16(rng.Intn(65536)),
			Payload: make([]byte, rng.Intn(300))} // may be empty: a bare ack takes no sequence space
		if trial%8 == 0 {
			a.Seq = Seq(0xffffffff - uint32(rng.Intn(400))) // the pair straddles the wrap
		}
		if rng.Intn(3) == 0 {
			a.Options = []Option{{Kind: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 0}}}
		}
		b := &Segment{SrcPort: a.SrcPort, DstPort: a.DstPort, Seq: a.Seq.Add(len(a.Payload)),
			Ack: Seq(rng.Uint32()), Flags: FlagACK, Window: uint16(rng.Intn(65536)),
			Options: a.Options, Payload: make([]byte, 1+rng.Intn(300))}
		rng.Read(a.Payload)
		rng.Read(b.Payload)
		if rng.Intn(2) == 0 {
			a.Flags |= FlagPSH
		}
		if rng.Intn(2) == 0 {
			b.Flags |= FlagPSH
		}

		if rng.Intn(2) == 0 {
			i := rng.Intn(len(breaks))
			if breaks[i].seg != nil {
				breaks[i].seg(rng, a, b)
			}
			rawA, rawB := Marshal(srcA, dstA, a), Marshal(srcA, dstA, b)
			if breaks[i].raw != nil {
				rawA, rawB = breaks[i].raw(rng, rawA, rawB)
			}
			if CanCoalesceRaw(rawA, rawB) {
				t.Fatalf("trial %d: merged across a %q break", trial, breaks[i].name)
			}
			refused[i]++
			continue
		}

		rawA, rawB := Marshal(srcA, dstA, a), Marshal(srcA, dstA, b)
		if !CanCoalesceRaw(rawA, rawB) {
			t.Fatalf("trial %d: refused an exact continuation (%d + %d bytes)", trial, len(a.Payload), len(b.Payload))
		}
		m := append(rawA[:len(rawA):len(rawA)], rawB[RawHeaderLen(rawB):]...)
		FinishCoalesceRaw(srcA, dstA, m, rawB)
		got, err := Unmarshal(srcA, dstA, m, true)
		if err != nil {
			t.Fatalf("trial %d: merged segment does not parse: %v", trial, err)
		}
		want := &Segment{SrcPort: a.SrcPort, DstPort: a.DstPort, Seq: a.Seq, Ack: b.Ack,
			Flags: a.Flags | b.Flags&FlagPSH, Window: b.Window, Payload: append(append([]byte(nil), a.Payload...), b.Payload...)}
		if !segmentsEqual(got, want) || len(got.Options) != len(a.Options) ||
			(len(a.Options) > 0 && !bytes.Equal(got.Options[0].Data, a.Options[0].Data)) {
			t.Fatalf("trial %d: merged segment\n got  %+v\n want %+v", trial, got, want)
		}
		merged++
	}
	for i, n := range refused {
		if n == 0 {
			t.Errorf("no trial drew the %q break", breaks[i].name)
		}
	}
	t.Logf("%d pairs merged, refusals by break %v", merged, refused)
}
