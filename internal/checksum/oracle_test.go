package checksum

import (
	"math/rand"
	"strconv"
	"testing"
)

// refSum is the byte-pair implementation Sum replaced, kept as the oracle
// the word-wise one is checked against.
func refSum(chunks ...[]byte) uint16 {
	var sum uint32
	odd := false
	var carryByte byte
	for _, b := range chunks {
		i := 0
		if odd && len(b) > 0 {
			sum += uint32(carryByte)<<8 | uint32(b[0])
			i = 1
			odd = false
		}
		n := len(b)
		for ; i+1 < n; i += 2 {
			sum += uint32(b[i])<<8 | uint32(b[i+1])
		}
		if i < n {
			carryByte = b[i]
			odd = true
		}
	}
	if odd {
		sum += uint32(carryByte) << 8
	}
	return ^fold(sum)
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestSumMatchesOracleByLength covers every length up to 2 KB (and the
// largest datagram), each starting at offsets 0–7 of one backing array so
// the word loads meet every alignment.
func TestSumMatchesOracleByLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := []int{65535}
	for n := 0; n <= 2048; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		backing := randomBytes(rng, n+7)
		for off := 0; off < 8; off++ {
			b := backing[off : off+n]
			if got, want := Sum(b), refSum(b); got != want {
				t.Fatalf("len %d offset %d: Sum = %#04x, oracle %#04x", n, off, got, want)
			}
		}
		b := backing[:n]
		// Carry saturation: every word is 0xffff, every add carries.
		for i := range b {
			b[i] = 0xff
		}
		if got, want := Sum(b), refSum(b); got != want {
			t.Fatalf("len %d all-0xff: Sum = %#04x, oracle %#04x", n, got, want)
		}
	}
}

// TestSumMatchesOracleAcrossChunks splits one buffer into two, three and
// four chunks at every split point, so that odd-length chunks (and empty
// ones) land before, between and after even ones.
func TestSumMatchesOracleAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 127 // covers the 64-byte step and the 32-, 16-, 8-, 4-, 2- and 1-byte tails in one chunk
	b := randomBytes(rng, n)
	want := refSum(b)
	if got := Sum(b); got != want {
		t.Fatalf("one chunk: Sum = %#04x, oracle %#04x", got, want)
	}
	for i := 0; i <= n; i++ {
		if got := Sum(b[:i], b[i:]); got != want {
			t.Fatalf("split %d: Sum = %#04x, oracle %#04x", i, got, want)
		}
		for j := i; j <= n; j++ {
			if got := Sum(b[:i], b[i:j], b[j:]); got != want {
				t.Fatalf("split %d,%d: Sum = %#04x, oracle %#04x", i, j, got, want)
			}
			for k := j; k <= n; k++ {
				if got := Sum(b[:i], b[i:j], b[j:k], b[k:]); got != want {
					t.Fatalf("split %d,%d,%d: Sum = %#04x, oracle %#04x", i, j, k, got, want)
				}
			}
		}
	}
}

// FuzzSum checks Sum against the oracle on arbitrary data, starting at an
// arbitrary offset 0–7 into its backing array and cut into three chunks at
// arbitrary points.
func FuzzSum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0))
	f.Add([]byte{0xab}, uint8(3), uint16(1), uint16(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0), uint16(3), uint16(4))
	f.Add(make([]byte, 1500), uint8(5), uint16(12), uint16(700))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, cutA, cutB uint16) {
		o := int(off % 8)
		data := append(make([]byte, o, o+len(raw)), raw...)[o:]
		i := int(cutA) % (len(data) + 1)
		j := i + int(cutB)%(len(data)-i+1)
		want := refSum(data)
		if got := Sum(data); got != want {
			t.Fatalf("Sum = %#04x, oracle %#04x", got, want)
		}
		if got := Sum(data[:i], data[i:j], data[j:]); got != want {
			t.Fatalf("cut %d,%d: Sum = %#04x, oracle %#04x", i, j, got, want)
		}
	})
}

var sumSink uint16

// BenchmarkSum covers the header-only sizes that dominate small-packet
// workloads (a bare IPv4 header; a bare TCP ACK's IPv4 and TCP headers),
// conn-scale's 276-byte reply segment, and data segments: a direct call, one
// behind the 14-byte pseudo-header chunk the TCP checksum sums first (its
// last word carries a kept payload sum), and the oracle.
func BenchmarkSum(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var pseudo [14]byte
	for _, n := range []int{20, 40, 276, 296, 1480} {
		data := randomBytes(rng, n)
		b.Run("direct/"+strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sumSink += Sum(data)
			}
		})
		b.Run("pseudo/"+strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sumSink += Sum(pseudo[:], data)
			}
		})
		b.Run("oracle/"+strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sumSink += refSum(pseudo[:], data)
			}
		})
	}
}
