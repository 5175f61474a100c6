package bench

import "testing"

// TestFaultSweepShape sanity-checks the sweep's physics on a tiny grid:
// the clean cell is run once and drops nothing, loss injects drops, streams
// survive intact, and no lossy cell outruns the clean one.
func TestFaultSweepShape(t *testing.T) {
	points := small(t, "faultsweep").FaultSweep
	if want := 1 + len(faultSweepModels); len(points) != want {
		t.Fatalf("got %d points, want %d (the clean cell, then each model at 0.02)", len(points), want)
	}
	clean := points[0]
	if clean.Model != "none" || clean.Rate != 0 || clean.Injected != 0 {
		t.Errorf("first point %+v, want the clean cell with no drops", clean)
	}
	if !clean.AllIntact {
		t.Error("clean cell: stream not intact")
	}
	for _, p := range points[1:] {
		if !p.AllIntact {
			t.Errorf("%s rate %g: stream not intact", p.Model, p.Rate)
		}
		if p.Rate == 0 || p.Injected == 0 {
			t.Errorf("%s rate %g injected %d drops, want a lossy cell that drops", p.Model, p.Rate, p.Injected)
		}
		if p.RecvKBps >= clean.RecvKBps {
			t.Errorf("%s: lossy rate %.2f KB/s not below clean %.2f KB/s", p.Model, p.RecvKBps, clean.RecvKBps)
		}
	}
}
