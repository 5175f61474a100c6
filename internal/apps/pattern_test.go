package apps

import (
	"bytes"
	"testing"
)

// refPattern and refVerifyPattern are the byte-at-a-time formula Pattern and
// VerifyPattern replaced, kept as the oracle the table-driven ones are
// checked against.
func refPattern(p []byte, off int64) {
	for i := range p {
		x := off + int64(i)
		p[i] = byte(x*131 + (x>>8)*31 + (x>>16)*7)
	}
}

func refVerifyPattern(p []byte, off int64) int {
	for i := range p {
		x := off + int64(i)
		if p[i] != byte(x*131+(x>>8)*31+(x>>16)*7) {
			return i
		}
	}
	return -1
}

// patternBoundaries are the offsets where a term of the formula steps: the
// 256-byte run, the 65 536-byte mid period and the 2^24-byte full period.
var patternBoundaries = []int64{0, 256, 65536, 1 << 24, 3<<24 + 5<<16 + 7<<8, 1 << 40}

func TestPatternMatchesOracle(t *testing.T) {
	got := make([]byte, 32<<10)
	want := make([]byte, 32<<10)
	check := func(off int64, n int) {
		t.Helper()
		// A wrong length or a write past the end shows as a changed guard.
		got[n] = 0xa5
		Pattern(got[:n], off)
		refPattern(want[:n], off)
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatalf("Pattern(len %d, off %d) differs from the oracle at %d", n, off, refVerifyPattern(got[:n], off))
		}
		if got[n] != 0xa5 {
			t.Fatalf("Pattern(len %d, off %d) wrote past its slice", n, off)
		}
		if i := VerifyPattern(want[:n], off); i != -1 {
			t.Fatalf("VerifyPattern(len %d, off %d) = %d on the oracle's bytes", n, off, i)
		}
	}
	for _, b := range patternBoundaries {
		for _, start := range []int64{-300, -257, -256, -255, -1, 0, 1, 77, 255} {
			if b+start < 0 {
				continue
			}
			for n := 0; n <= 1000; n++ {
				check(b+start, n)
			}
		}
		check(b-1, 32<<10-1)
		check(b+3, 32<<10-1)
	}
	check(-1000, 2000) // the formula is defined below zero too
}

// TestVerifyPatternLocatesEveryMismatch plants one wrong byte at every
// position of a buffer spanning three runs, with an unaligned start.
func TestVerifyPatternLocatesEveryMismatch(t *testing.T) {
	for _, b := range patternBoundaries {
		off := b + 200
		p := make([]byte, 600)
		refPattern(p, off)
		for i := range p {
			p[i] ^= 0x40
			if got := VerifyPattern(p, off); got != i {
				t.Fatalf("off %d: mismatch planted at %d reported at %d", off, i, got)
			}
			if i+1 < len(p) {
				// The first of two mismatches is the one reported.
				p[len(p)-1] ^= 0x01
				if got := VerifyPattern(p, off); got != i {
					t.Fatalf("off %d: first of two mismatches at %d reported at %d", off, i, got)
				}
				p[len(p)-1] ^= 0x01
			}
			p[i] ^= 0x40
		}
	}
}

// FuzzPattern checks both kernels against the oracle at arbitrary offsets
// and lengths, with and without one flipped byte.
func FuzzPattern(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(255), uint16(2), uint16(1))
	f.Add(int64(65535), uint16(1000), uint16(999))
	f.Add(int64(1<<24-100), uint16(40000), uint16(12345))
	f.Add(int64(-5), uint16(10), uint16(5))
	f.Fuzz(func(t *testing.T, off int64, n, flip uint16) {
		got := make([]byte, n)
		want := make([]byte, n)
		Pattern(got, off)
		refPattern(want, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("Pattern(len %d, off %d) differs from the oracle at %d", n, off, refVerifyPattern(got, off))
		}
		if n == 0 {
			return
		}
		want[int(flip)%len(want)] ^= 0x80
		if g, w := VerifyPattern(want, off), refVerifyPattern(want, off); g != w {
			t.Fatalf("VerifyPattern(len %d, off %d) = %d, oracle %d", n, off, g, w)
		}
	})
}

// BenchmarkPattern measures the fill and the verify per 32 KiB buffer, the
// shape of benchmark/'s apps.kernel.pattern_ns_per_kB, against the oracle.
func BenchmarkPattern(b *testing.B) {
	buf := make([]byte, 32<<10)
	run := func(name string, f func(i int)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				f(i)
			}
		})
	}
	run("fill", func(i int) { Pattern(buf, int64(i)<<15) })
	run("fill-oracle", func(i int) { refPattern(buf, int64(i)<<15) })
	Pattern(buf, 0)
	run("verify", func(int) {
		if VerifyPattern(buf, 0) >= 0 {
			b.Fatal("mismatch")
		}
	})
	run("verify-oracle", func(int) {
		if refVerifyPattern(buf, 0) >= 0 {
			b.Fatal("mismatch")
		}
	})
}
