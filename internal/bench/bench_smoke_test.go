package bench

import (
	"testing"
	"time"
)

// Smoke tests: each reads its experiment's small run (smallRuns), so the
// benchmark code cannot rot while only go test runs in CI. Result sanity
// (not calibration) is asserted.

func TestConnectionSetupSmoke(t *testing.T) {
	for _, r := range small(t, "connsetup").ConnSetup {
		if r.Median <= 0 || r.Max < r.Median || r.Min > r.Median {
			t.Errorf("%v: implausible stats %+v", r.Mode, r)
		}
		if r.Median > 5*time.Millisecond {
			t.Errorf("%v: connection setup %v, want sub-millisecond scale", r.Mode, r.Median)
		}
	}
}

func TestConnectionSetupFailoverSlower(t *testing.T) {
	cs := small(t, "connsetup").ConnSetup
	std, fo := cs[0], cs[1]
	if fo.Median <= std.Median {
		t.Errorf("failover setup (%v) not slower than standard (%v)", fo.Median, std.Median)
	}
	// The paper's ratio is 1.72x; hold the reproduction within a loose band.
	ratio := float64(fo.Median) / float64(std.Median)
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("setup ratio %.2f outside [1.2, 2.5]", ratio)
	}
}

func TestClientToServerSendSmoke(t *testing.T) {
	pts := small(t, "fig3").Fig3Fo
	if len(pts) != 2 || pts[0].Median <= 0 || pts[1].Median <= pts[0].Median {
		t.Errorf("implausible curve: %+v", pts)
	}
}

func TestServerToClientTransferSmoke(t *testing.T) {
	pts := small(t, "fig4").Fig4Std
	if pts[0].Median <= 0 || pts[0].Median > 100*time.Millisecond {
		t.Errorf("4 KB reply took %v", pts[0].Median)
	}
}

func TestStreamRatesSmoke(t *testing.T) {
	rates := small(t, "fig5").Fig5
	std, fo := rates[0], rates[1]
	if std.SendKBps <= 0 || std.RecvKBps <= 0 {
		t.Fatalf("zero standard rates: %+v", std)
	}
	// The paper's headline asymmetry: the receive direction suffers more.
	if !(fo.RecvKBps < fo.SendKBps) {
		t.Errorf("failover recv (%.0f) not below send (%.0f)", fo.RecvKBps, fo.SendKBps)
	}
	if !(fo.SendKBps < std.SendKBps) {
		t.Errorf("failover send (%.0f) not below standard (%.0f)", fo.SendKBps, std.SendKBps)
	}
}

func TestFTPRatesSmoke(t *testing.T) {
	pts := small(t, "fig6").Fig6Fo
	if len(pts) != 5 {
		t.Fatalf("%d points, want 5 files", len(pts))
	}
	for _, p := range pts {
		if p.GetKBps <= 0 || p.PutKBps <= 0 {
			t.Errorf("%s: zero rate %+v", p.Name, p)
		}
	}
	// Gets grow toward the WAN plateau.
	if !(pts[0].GetKBps < pts[len(pts)-1].GetKBps) {
		t.Errorf("tiny-file get (%.1f) not below large-file get (%.1f)",
			pts[0].GetKBps, pts[len(pts)-1].GetKBps)
	}
}

func TestAblationSmoke(t *testing.T) {
	rows := small(t, "ablate").Ablation
	if len(rows) != 5 {
		t.Fatalf("%d ablation rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.SendKBps <= 0 || r.RecvKBps <= 0 {
			t.Errorf("%s: zero rates", r.Name)
		}
	}
}
