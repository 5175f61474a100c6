package bench

import "testing"

// TestSLOSmoke reads the small grid and checks each cell's accounting
// invariants and the experiment's headline claim: the failover crash cell
// must complete about as many requests as its no-crash twin (standard TCP
// loses the rest of the window), and the crash must show up in the tail.
func TestSLOSmoke(t *testing.T) {
	loads, points := smallSLOLoads, small(t, "slo").SLO
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
