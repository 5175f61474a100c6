// Package fault is the deterministic network-impairment and failure-
// schedule subsystem. It provides composable, seeded impairment models —
// Bernoulli and Gilbert–Elliott (bursty) loss, targeted drops, bit
// corruption, and directional link partitions — that attach per-link and
// per-direction to internal/ethernet segments, plus a declarative failure
// schedule (crash the primary at t, partition then heal, cascading faults)
// that drives replica failures through the scenario API instead of ad-hoc
// test code.
//
// All randomness flows from the simulation seed through a splittable PRNG:
// every model instance owns a private stream derived from
// (seed, link, impairment index, model index), so a faulty run is
// byte-for-byte reproducible regardless of how many other components
// consume the scheduler's RNG and regardless of the benchmark harness's
// worker count.
package fault

import "hash/fnv"

// Rand is a small splittable PRNG (SplitMix64 core). Unlike math/rand it
// can derive independent child streams from string labels, which is how
// each impairment model gets randomness that does not interleave with any
// other consumer of the simulation seed.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value of the stream (SplitMix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream keyed by label. Splitting
// advances the parent by one draw, so repeated splits with the same label
// yield distinct streams; two parents with equal state and equal split
// sequences yield identical children.
func (r *Rand) Split(label string) *Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return NewRand(mix(r.Uint64() ^ h.Sum64()))
}

// mix finalizes a seed so that related inputs (sequential counters, similar
// labels) land in unrelated states.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}
