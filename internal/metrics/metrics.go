// Package metrics provides the small statistics helpers the benchmark
// harness uses to report results the way the paper does: medians, maxima,
// and transfer rates.
package metrics

import (
	"slices"
	"time"
)

// Samples collects samples of one numeric type and answers exact order
// statistics: every percentile the record reports, from the paper's medians
// to E12's latency and E14's stall tails, is a nearest-rank sample held
// here, never a bucket bound. Holding them costs 8 bytes a sample; the
// record's largest set, one E14 phase at its largest point, is about 32 000
// samples. Percentile queries sort the samples in place and remember that
// they are sorted, so a burst of queries (median, p90, p99...) after a
// collection phase costs one sort and zero allocations. Every statistic of
// an empty collector is zero.
type Samples[T ~int64 | ~float64] struct {
	samples []T
	sorted  bool
}

// Durations collects duration samples; Floats collects float64 samples
// (rates, ratios).
type (
	Durations = Samples[time.Duration]
	Floats    = Samples[float64]
)

// Add records a sample.
func (s *Samples[T]) Add(v T) {
	s.samples = append(s.samples, v)
	s.sorted = false
}

// N returns the number of samples.
func (s *Samples[T]) N() int { return len(s.samples) }

// Median returns the median sample.
func (s *Samples[T]) Median() T { return s.Percentile(50) }

// Percentile returns the pth percentile using nearest-rank: the sample at
// sorted index int((n-1)*p/100), so Percentile(100) is the max.
func (s *Samples[T]) Percentile(p float64) T {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.samples)
		s.sorted = true
	}
	idx := int(float64(len(s.samples)-1) * p / 100.0)
	return s.samples[idx]
}

// Max returns the largest sample, or zero when none is positive.
func (s *Samples[T]) Max() T {
	var m T
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample.
func (s *Samples[T]) Min() T {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// RateKBps converts bytes transferred in elapsed time to KB/s (the paper's
// unit, 1 KB = 1024 bytes).
func RateKBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1024.0 / elapsed.Seconds()
}
