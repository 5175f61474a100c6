package bench

import (
	"slices"
	"testing"
	"time"

	"tcpfailover/internal/obs"
)

// TestCollectTimeseriesShape checks the -timeseries-out workload samples a
// regular grid and actually sees traffic: some counter must be increasing,
// and each cell's scheduler counts its timer arms into its registry.
func TestCollectTimeseriesShape(t *testing.T) {
	ts := small(t, "CollectTimeseries").Timeseries
	if len(ts.TimesNs) == 0 || len(ts.Series) == 0 {
		t.Fatalf("empty timeseries: %d rows, %d series", len(ts.TimesNs), len(ts.Series))
	}
	for i := 1; i < len(ts.TimesNs); i++ {
		if ts.TimesNs[i]-ts.TimesNs[i-1] != int64(200*time.Millisecond) {
			t.Fatalf("irregular grid at row %d: %d -> %d", i, ts.TimesNs[i-1], ts.TimesNs[i])
		}
	}
	moved := false
	for _, col := range ts.Series {
		if col.Values[0] != col.Values[len(col.Values)-1] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("no series changed over the run — the sampler saw no traffic")
	}
	// The span recorder exports through the same registry; its
	// recorded-span counter must be present and populated by the load, and
	// so must both timer-arm counters.
	for _, name := range []string{"obs_spans_total", "sim_timer_wheel_arms_total", "sim_timer_heap_arms_total"} {
		i := slices.IndexFunc(ts.Series, func(col obs.TimeseriesCol) bool { return col.Name == name })
		if i < 0 {
			t.Errorf("%s series missing from the sampled registry", name)
		} else if vs := ts.Series[i].Values; vs[len(vs)-1] == 0 {
			t.Errorf("%s ends at zero under load", name)
		}
	}
}
