package metrics

import (
	"math/bits"
	"time"
)

// LogHistogram is a zero-allocation log-bucketed histogram in the style of
// HDR histograms: values up to 2*logHistSub are counted exactly, and every
// octave above that is split into logHistSub linear sub-buckets, bounding
// the relative quantile error by 1/logHistSub (~3%). The bucket array is a
// fixed-size value field, so recording a sample is two integer operations
// and an increment — no allocation, no sort, no retained samples. That is
// the property the open-loop experiments need: p99/p999 over millions of
// response-time samples without holding every sample the way the sort-based
// Durations does. Durations remains the right tool for small-n experiments
// where exact order statistics matter.
//
// The zero value is ready to use.
type LogHistogram struct {
	counts [logHistBuckets]int64
	count  int64
	min    int64
	max    int64
}

const (
	// logHistSubBits fixes the sub-bucket resolution: 2^5 = 32 sub-buckets
	// per octave, a worst-case relative error of 1/32 per reported quantile.
	logHistSubBits = 5
	logHistSub     = 1 << logHistSubBits
	// logHistBuckets covers the full non-negative int64 range: values below
	// 2*logHistSub index directly, and each octave shift above that (1 to
	// 63-(logHistSubBits+1), i.e. up to MaxInt64) contributes logHistSub
	// sub-buckets; the last bucket's upper bound is exactly MaxInt64.
	logHistBuckets = 2*logHistSub + (63-logHistSubBits-1)*logHistSub
)

// logHistIndex maps a non-negative value to its bucket.
func logHistIndex(v int64) int {
	u := uint64(v)
	if u < 2*logHistSub {
		return int(u)
	}
	shift := bits.Len64(u) - (logHistSubBits + 1)
	return shift*logHistSub + int(u>>uint(shift))
}

// logHistUpper returns the largest value the bucket holds (its inclusive
// upper bound). Quantiles report this value, capped at the exact max, so
// the estimate never undershoots the exact order statistic and overshoots
// it by at most one bucket width (a factor of 1 + 1/logHistSub).
func logHistUpper(i int) int64 {
	if i < 2*logHistSub {
		return int64(i)
	}
	shift := i/logHistSub - 1
	return int64(i-shift*logHistSub+1)<<uint(shift) - 1
}

// Observe records a sample. Negative values clamp to zero (durations are
// never negative; a clamped zero is more useful than a panic mid-run).
func (h *LogHistogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.counts[logHistIndex(v)]++
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *LogHistogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// N returns the number of recorded samples.
func (h *LogHistogram) N() int64 { return h.count }

// Percentile returns the pth percentile using the same nearest-rank
// convention as Durations.Percentile: the sample at sorted index
// int((n-1)*p/100). The returned value is the containing bucket's upper
// bound clamped to the exact max, so it is >= the exact order statistic,
// within a relative 1/32 of it, and never above the exact max. The exact
// min and max are substituted at the extremes: Percentile(0) is the min and
// Percentile(100) the max.
func (h *LogHistogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(float64(h.count-1)*p/100.0) + 1 // 1-based target rank
	if rank <= 1 {
		return h.min
	}
	if rank >= h.count {
		return h.max
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			return min(logHistUpper(i), h.max)
		}
	}
	return h.max // unreachable: cum reaches h.count
}

// PercentileDuration is Percentile for duration-valued histograms.
func (h *LogHistogram) PercentileDuration(p float64) time.Duration {
	return time.Duration(h.Percentile(p))
}
