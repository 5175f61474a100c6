package metrics

import (
	"testing"
	"time"
)

// The statistics cases run over both instantiations of Samples: the same
// programme in milliseconds for Durations and in plain units for Floats.

func testStatistics[T ~int64 | ~float64](t *testing.T, unit T) {
	var d Samples[T]
	for _, v := range []T{5, 1, 4, 2, 3} {
		d.Add(v * unit)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if got := d.Median(); got != 3*unit {
		t.Errorf("Median = %v", got)
	}
	if got := d.Max(); got != 5*unit {
		t.Errorf("Max = %v", got)
	}
	if got := d.Min(); got != unit {
		t.Errorf("Min = %v", got)
	}
	if got := d.Percentile(0); got != unit {
		t.Errorf("P0 = %v", got)
	}
	if got := d.Percentile(100); got != 5*unit {
		t.Errorf("P100 = %v", got)
	}
}

func testEmpty[T ~int64 | ~float64](t *testing.T) {
	var d Samples[T]
	if d.Median() != 0 || d.Max() != 0 || d.Min() != 0 {
		t.Error("empty collector should report zeros")
	}
}

// testPercentileAfterAdd pins the dirty-flag behaviour: queries sort once,
// a later Add invalidates the sort, and the next query re-sorts.
func testPercentileAfterAdd[T ~int64 | ~float64](t *testing.T, unit T) {
	var d Samples[T]
	d.Add(3 * unit)
	d.Add(1 * unit)
	if got := d.Median(); got != 1*unit {
		t.Errorf("median of {3,1} = %v, want 1", got)
	}
	d.Add(5 * unit)
	d.Add(4 * unit)
	if got := d.Median(); got != 3*unit {
		t.Errorf("median after more adds = %v, want 3", got)
	}
	if got := d.Percentile(100); got != 5*unit {
		t.Errorf("P100 = %v, want 5", got)
	}
}

func TestSamples(t *testing.T) {
	t.Run("Durations", func(t *testing.T) {
		testStatistics(t, time.Millisecond)
		testEmpty[time.Duration](t)
		testPercentileAfterAdd(t, time.Millisecond)
	})
	t.Run("Floats", func(t *testing.T) {
		testStatistics(t, 1.0)
		testEmpty[float64](t)
		testPercentileAfterAdd(t, 1.0)
	})
	// The two names are the two instantiations, not copies.
	var _ *Samples[time.Duration] = new(Durations)
	var _ *Samples[float64] = new(Floats)
}

func TestRateKBps(t *testing.T) {
	if got := RateKBps(102400, time.Second); got != 100 {
		t.Errorf("RateKBps = %v, want 100", got)
	}
	if got := RateKBps(1024, 0); got != 0 {
		t.Errorf("RateKBps with zero elapsed = %v", got)
	}
}

// BenchmarkPercentileQueries measures a typical report: many samples, then
// a burst of percentile queries. The sort-once collectors do one sort and
// no per-query allocation; before the dirty flag every query copied and
// re-sorted the full sample set.
func BenchmarkPercentileQueries(b *testing.B) {
	var d Durations
	for i := 0; i < 10000; i++ {
		d.Add(time.Duration((i*2654435761)%100000) * time.Microsecond)
	}
	d.Percentile(50) // sort outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Percentile(50)
		d.Percentile(90)
		d.Percentile(99)
	}
}
