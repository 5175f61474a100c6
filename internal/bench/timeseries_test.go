package bench

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"tcpfailover/internal/obs"
)

// TestCollectTimeseriesShape checks the -timeseries-out workload samples a
// regular grid and actually sees traffic: some counter must be increasing,
// and each cell's scheduler counts its timer arms into its registry.
func TestCollectTimeseriesShape(t *testing.T) {
	ts, err := CollectTimeseries(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
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
	// The eviction-bounded span recorder exports through the same registry;
	// its active-span gauge must be present and populated by the load, and
	// so must both timer-arm counters.
	for _, name := range []string{"obs_spans_active", "sim_timer_wheel_arms_total", "sim_timer_heap_arms_total"} {
		i := slices.IndexFunc(ts.Series, func(col obs.TimeseriesCol) bool { return col.Name == name })
		if i < 0 {
			t.Errorf("%s series missing from the sampled registry", name)
		} else if vs := ts.Series[i].Values; vs[len(vs)-1] == 0 {
			t.Errorf("%s ends at zero under load", name)
		}
	}
}

// TestCollectTimeseriesIdenticalAcrossWorkerCounts gates the merge: cells
// sample their own registries on a shared sim-time grid, so the merged
// fleet view must be byte-identical however many bench workers run the
// cells.
func TestCollectTimeseriesIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []byte {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		ts, err := CollectTimeseries(200 * time.Millisecond)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if base, got := run(1), run(4); !bytes.Equal(base, got) {
		t.Errorf("timeseries differs at workers=4:\n--- base ---\n%s\n--- got ---\n%s", base, got)
	}
}
