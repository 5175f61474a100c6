package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// sloSmall is an SLO workload small enough for unit tests: two loads, a
// short window, every (mode, crash) cell still exercised.
func sloSmall() ([]float64, time.Duration) {
	return []float64{20, 60}, 2 * time.Second
}

// TestSLOSmoke runs the small grid once and checks each cell's accounting
// invariants and the experiment's headline claim: the failover crash cell
// must complete about as many requests as its no-crash twin (standard TCP
// loses the rest of the window), and the crash must show up in the tail.
func TestSLOSmoke(t *testing.T) {
	loads, window := sloSmall()
	points, err := SLO(loads, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(loads)*2 {
		t.Fatalf("got %d cells, want %d", len(points), 2*len(loads)*2)
	}
	byCell := map[[3]any]SLOPoint{}
	for _, p := range points {
		if p.Requests < 0 || p.Completed+p.Failed+p.Outstanding != p.Requests {
			t.Errorf("%s load %g crash=%v: %d completed + %d failed + %d outstanding != %d requests",
				p.Mode, p.Load, p.Crash, p.Completed, p.Failed, p.Outstanding, p.Requests)
		}
		if p.Completed > 0 && (p.P50 <= 0 || p.P99 < p.P50 || p.P999 < p.P99) {
			t.Errorf("%s load %g crash=%v: non-monotone percentiles p50=%v p99=%v p999=%v",
				p.Mode, p.Load, p.Crash, p.P50, p.P99, p.P999)
		}
		if p.Arrivals == 0 || p.Requests == 0 {
			t.Errorf("%s load %g crash=%v: no traffic (arrivals=%d requests=%d)",
				p.Mode, p.Load, p.Crash, p.Arrivals, p.Requests)
		}
		byCell[[3]any{p.Mode, p.Load, p.Crash}] = p
	}
	for _, load := range loads {
		stdCrash := byCell[[3]any{Standard, load, true}]
		stdOK := byCell[[3]any{Standard, load, false}]
		foCrash := byCell[[3]any{Failover, load, true}]
		foOK := byCell[[3]any{Failover, load, false}]
		// Standard TCP loses the post-crash half of the window: its crash
		// cell must complete well under its no-crash twin.
		if stdCrash.Completed*3 > stdOK.Completed*2 {
			t.Errorf("load %g: standard crash completed %d of %d no-crash — crash had no effect?",
				load, stdCrash.Completed, stdOK.Completed)
		}
		// The failover pair keeps serving: within 25%% of its no-crash twin.
		if foCrash.Completed*4 < foOK.Completed*3 {
			t.Errorf("load %g: failover crash completed %d vs %d no-crash — service did not survive",
				load, foCrash.Completed, foOK.Completed)
		}
		// The crash is not free: it must be visible in the failover tail.
		if foCrash.Max <= foOK.P50 {
			t.Errorf("load %g: failover crash max latency %v under no-crash p50 %v — no takeover stall?",
				load, foCrash.Max, foOK.P50)
		}
	}
}

// TestSLOIdenticalAcrossWorkerCounts gates the open-loop experiment's
// determinism: every cell is a pure function of its seed, so the marshalled
// results must be byte-identical for any worker count.
func TestSLOIdenticalAcrossWorkerCounts(t *testing.T) {
	loads, window := sloSmall()
	run := func(workers int) []byte {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		points, err := SLO(loads, window)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.MarshalIndent(points, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("SLO results differ between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
