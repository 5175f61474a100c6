package tcp

import (
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
)

// The paper's section 3.1 justifies incremental checksum maintenance:
// "it is not necessary to recompute the checksum from scratch". These
// benchmarks quantify that design choice on the operations the bridges
// perform per segment.

func benchSegment(payload int) []byte {
	rng := rand.New(rand.NewSource(1))
	s := &Segment{
		SrcPort: 80,
		DstPort: 49152,
		Seq:     Seq(rng.Uint32()),
		Ack:     Seq(rng.Uint32()),
		Flags:   FlagACK | FlagPSH,
		Window:  65535,
		Payload: make([]byte, payload),
	}
	rng.Read(s.Payload)
	return Marshal(srcA, dstA, s)
}

// BenchmarkIncrementalVsFullChecksum/incremental is the bridge's per-patch
// cost; /full is what a naive implementation would pay per 1452-byte
// segment.
func BenchmarkIncrementalVsFullChecksum(b *testing.B) {
	raw := benchSegment(1452)
	b.Run("incremental", func(b *testing.B) {
		v := Seq(0)
		for b.Loop() {
			SetRawAck(raw, v)
			v++
		}
	})
	b.Run("full", func(b *testing.B) {
		for b.Loop() {
			putU16(raw[16:], 0)
			cs := ComputeChecksum(srcA, dstA, raw)
			putU16(raw[16:], cs)
		}
	})
}

func BenchmarkPatchPseudoAddr(b *testing.B) {
	raw := benchSegment(1452)
	other := ipv4.MustParseAddr("10.0.1.2")
	from, to := dstA, other
	for b.Loop() {
		PatchPseudoAddr(raw, from, to)
		from, to = to, from
	}
}

func BenchmarkInsertStripOrigDst(b *testing.B) {
	raw := benchSegment(1024)
	for b.Loop() {
		diverted, err := divertedCopy(raw, srcA)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, ok := StripOrigDstOptionInPlace(diverted); !ok {
			b.Fatal("strip failed")
		}
	}
	b.SetBytes(int64(len(raw)))
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	seg := &Segment{
		SrcPort: 80, DstPort: 49152, Seq: 1, Ack: 2,
		Flags: FlagACK, Window: 65535, Payload: make([]byte, 1452),
	}
	b.Run("marshal", func(b *testing.B) {
		for b.Loop() {
			_ = Marshal(srcA, dstA, seg)
		}
		b.SetBytes(1452)
	})
	raw := Marshal(srcA, dstA, seg)
	b.Run("unmarshal-verify", func(b *testing.B) {
		for b.Loop() {
			if _, err := Unmarshal(srcA, dstA, raw, true); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(1452)
	})
}
