package metrics

import (
	"math"
	"testing"
	"time"
)

// rng is a tiny splitmix64 so the tests don't depend on math/rand ordering.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// TestLogHistIndexMonotone walks bucket boundaries: the index function must
// be monotone, every bucket's upper bound must map back to its own index,
// and the next value must map to the next bucket.
func TestLogHistIndexMonotone(t *testing.T) {
	prev := -1
	for i := 0; i < logHistBuckets; i++ {
		u := logHistUpper(i)
		if got := logHistIndex(u); got != i {
			t.Fatalf("upper(%d)=%d maps to bucket %d", i, u, got)
		}
		if prev >= 0 && u <= logHistUpper(prev) {
			t.Fatalf("upper bounds not increasing at %d", i)
		}
		prev = i
		if u < math.MaxInt64 {
			if got := logHistIndex(u + 1); got != i+1 {
				t.Fatalf("upper(%d)+1=%d maps to bucket %d, want %d", i, u+1, got, i+1)
			}
		}
	}
}

// TestLogHistogramVsExactPercentiles is the cross-check the satellite task
// asks for: for several sample distributions, every quantile reported by the
// log-bucketed histogram must bracket the exact sorted percentile from
// above within the bucket's relative-error bound.
func TestLogHistogramVsExactPercentiles(t *testing.T) {
	distributions := map[string]func(r *rng) int64{
		"uniform": func(r *rng) int64 { return int64(r.next() % 1_000_000) },
		"exponential": func(r *rng) int64 {
			return int64(-math.Log(1-r.float()) * 50_000)
		},
		"heavytail": func(r *rng) int64 {
			// Pareto alpha=1.2: the regime where retaining samples hurts.
			return int64(1000 * math.Pow(1-r.float(), -1/1.2))
		},
		"tiny": func(r *rng) int64 { return int64(r.next() % 40) }, // exact region
		// Identical samples: every quantile is the max, exactly, though the
		// bucket's upper edge lies above it.
		"constant": func(*rng) int64 { return int64(90 * time.Millisecond) },
	}
	quantiles := []float64{0, 10, 50, 90, 99, 99.9, 100}
	for name, draw := range distributions {
		r := &rng{s: 42}
		var h LogHistogram
		var exact Durations
		for i := 0; i < 200_000; i++ {
			v := draw(r)
			h.Observe(v)
			exact.Add(time.Duration(v))
		}
		for _, q := range quantiles {
			want := int64(exact.Percentile(q))
			got := h.Percentile(q)
			if top := int64(exact.Max()); got < want || got > top {
				t.Errorf("%s p%v: histogram %d outside [exact %d, max %d]", name, q, got, want, top)
			}
			// Upper bound: one bucket width, i.e. a relative 1/32 (plus 1 for
			// the integer edges of the exact region).
			if limit := want + want/logHistSub + 1; got > limit {
				t.Errorf("%s p%v: histogram %d exceeds exact %d by more than 1/%d",
					name, q, got, want, logHistSub)
			}
		}
		if h.N() != int64(exact.N()) {
			t.Errorf("%s: count %d != %d", name, h.N(), exact.N())
		}
		if lo, hi := h.Percentile(0), h.Percentile(100); lo != int64(exact.Min()) || hi != int64(exact.Max()) {
			t.Errorf("%s: min/max not exact: %d/%d vs %d/%d",
				name, lo, hi, int64(exact.Min()), int64(exact.Max()))
		}
	}
}

// TestLogHistogramObserveAllocs pins the zero-allocation property of the
// record path.
func TestLogHistogramObserveAllocs(t *testing.T) {
	var h LogHistogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123_456)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}

// TestLogHistogramEmptyAndNegative covers the degenerate inputs.
func TestLogHistogramEmptyAndNegative(t *testing.T) {
	var h LogHistogram
	if h.Percentile(0) != 0 || h.Percentile(50) != 0 || h.Percentile(100) != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-5)
	if h.Percentile(0) != 0 || h.Percentile(100) != 0 || h.N() != 1 {
		t.Errorf("negative sample must clamp to zero: min=%d max=%d n=%d", h.Percentile(0), h.Percentile(100), h.N())
	}
	h.ObserveDuration(time.Millisecond)
	if h.PercentileDuration(100) != time.Millisecond {
		t.Errorf("max duration = %v, want 1ms", h.PercentileDuration(100))
	}
}
