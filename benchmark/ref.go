package main

import (
	"fmt"
	"time"
)

// The reference kernel is the benchmark's yardstick for the box's current
// speed. Neighbours on this shared 2-core box move it between speed regimes
// lasting seconds to tens of seconds, and raw wall-clock moves with them;
// the same fixed work timed immediately before and after each slice of the
// measured program moves by the same factor, so their ratio does not.
//
// The kernel mixes the two kinds of work the simulator does: byte-fill
// arithmetic over a cache-resident 32 KB buffer (the apps.Pattern /
// checksum shape) and dependent loads chasing one cycle through a 4 MB
// table (the flow-table / timer-heap / connection-state shape). It is
// FROZEN: changing any constant below, or the arithmetic, changes what a
// "normalised nanosecond" means and invalidates every recorded baseline.
// refSelfTest pins its output.
const (
	refFillBytes  = 32 * 1024
	refFillPasses = 96
	refTableSlots = 1 << 20 // 4 MB of uint32 links
	refChaseLoads = 80_000

	// refWant is the kernel's checksum over its own output; refSelfTest
	// fails if the work ever changes.
	refWant = 0x352829f11622a2d0

	// refFillQuietNS and refChaseQuietNS are the scale of the two halves:
	// about the fastest each was seen on this box. A sample's slowdown is
	// its time over these, and normalised values are wall ÷ slowdown, so
	// they read as "ns on a quiet box". Only their ratio matters to a
	// comparison (it weighs the halves in the blend); no verdict depends on
	// their absolute size, and they are frozen with the kernel.
	refFillQuietNS  = 3_500_000
	refChaseQuietNS = 3_000_000
)

// The kernel's buffers are static, not heap, storage: they must not count
// toward host_heap_MB, nor stretch the collector's pacing for the program
// under measurement. The table is read-only once built, and only the
// measuring goroutine runs the kernel.
var (
	refFill  [refFillBytes]byte
	refTable [refTableSlots]uint32
	refBuilt bool
)

type refKernel struct {
	fill  []byte
	table []uint32
	pos   uint32
	sink  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{fill: refFill[:], table: refTable[:]}
	if refBuilt {
		return k
	}
	refBuilt = true
	// One full-length cycle over the table (Sattolo's algorithm) from a
	// fixed xorshift stream: every load depends on the previous one and the
	// walk touches the whole 4 MB before repeating.
	perm := k.table
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(perm) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return k
}

// run executes the kernel once and returns a checksum of its output.
func (k *refKernel) run() uint64 { return k.fillPart() ^ k.chasePart() }

// fillPart is the compute half: arithmetic over a cache-resident buffer.
func (k *refKernel) fillPart() uint64 {
	var acc uint64
	for p := 0; p < refFillPasses; p++ {
		off := int64(p) * refFillBytes
		for i := range k.fill {
			x := off + int64(i)
			k.fill[i] = byte(x*131 + (x>>8)*31 + (x>>16)*7)
		}
		var s uint32
		for i := 0; i+1 < len(k.fill); i += 2 {
			s += uint32(k.fill[i])<<8 | uint32(k.fill[i+1])
		}
		acc = acc*1099511628211 + uint64(s)
	}
	k.sink += acc
	return acc
}

// chasePart is the memory half: dependent loads through the table. The
// chase continues where the previous run stopped, so consecutive runs walk
// different parts of the table.
func (k *refKernel) chasePart() uint64 {
	pos := k.pos
	for i := 0; i < refChaseLoads; i++ {
		pos = k.table[pos]
	}
	k.pos = pos
	return uint64(pos)
}

// refSample is one timed execution of the kernel, its two halves apart.
type refSample struct {
	fillNS  float64
	chaseNS float64
}

func (s refSample) total() float64 { return s.fillNS + s.chaseNS }

// slowdown is how much slower than the quiet box the two samples bracketing
// an interval ran, blending the kernel's halves by mix: the share of the
// compute half. Neighbours slow the two halves differently (the memory half
// was seen anywhere from 1.2x to 3.2x its quiet time while the compute half
// stayed within 0.9x to 1.5x), and a workload reacts with its own blend:
// normalising a compute-bound stream by the memory half moves its level by
// 17 % between regimes of the box (README, "Limits").
func slowdown(before, after refSample, mix float64) float64 {
	fill := (before.fillNS + after.fillNS) / 2 / refFillQuietNS
	chase := (before.chaseNS + after.chaseNS) / 2 / refChaseQuietNS
	return mix*fill + (1-mix)*chase
}

// time runs the kernel once and returns the wall time of each half.
func (k *refKernel) time() refSample {
	t0 := time.Now()
	k.fillPart()
	t1 := time.Now()
	k.chasePart()
	t2 := time.Now()
	return refSample{fillNS: float64(t1.Sub(t0).Nanoseconds()), chaseNS: float64(t2.Sub(t1).Nanoseconds())}
}

// refSelfTest runs a fresh kernel and checks its output against the frozen
// constant.
func refSelfTest() error {
	if got := newRefKernel().run(); got != refWant {
		return fmt.Errorf("reference kernel output %#x, want %#x: the kernel changed and every normalised baseline is void", got, uint64(refWant))
	}
	return nil
}
