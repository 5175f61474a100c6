package bench

import (
	"testing"
	"time"
)

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

// TestFailoverTimelineShape checks the clean cell's phases against the known
// structure of a LAN failover: every run scores a stall; detection is
// bounded by the detector timeout plus one check period; the ARP announce
// is synchronous with the takeover procedure; and the secondary's
// retransmission timeout dominates.
func TestFailoverTimelineShape(t *testing.T) {
	clean := small(t, "faultsweep").FaultSweep[0]
	if clean.N != smallFaultRuns {
		t.Errorf("%d of %d clean runs scored a stall", clean.N, smallFaultRuns)
	}
	// LANOptions detector: 10 ms period, 50 ms timeout -> detection lands
	// in (timeout, timeout+period] less the in-flight residue the client
	// still received after the crash.
	if d := clean.DetectionMedian; d < 40*time.Millisecond || d > 70*time.Millisecond {
		t.Errorf("detection median %v outside the detector's timeout window", d)
	}
	if clean.AnnounceMedian > time.Millisecond {
		t.Errorf("announce median %v: the gratuitous ARP should go out with the takeover", clean.AnnounceMedian)
	}
	if clean.ResumeMedian < 100*time.Millisecond {
		t.Errorf("resume median %v: the secondary's retransmission timeout should dominate the stall", clean.ResumeMedian)
	}
}
