package bench

import (
	"testing"
	"time"
)

// Smoke tests: every experiment of the harness runs end-to-end with minimal
// parameters, so the benchmark code cannot rot while only go test runs in
// CI. Result sanity (not calibration) is asserted.

func TestConnectionSetupSmoke(t *testing.T) {
	for _, mode := range []Mode{Standard, Failover} {
		r, err := ConnectionSetup(mode, 3)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Median <= 0 || r.Max < r.Median || r.Min > r.Median {
			t.Errorf("%v: implausible stats %+v", mode, r)
		}
		if r.Median > 5*time.Millisecond {
			t.Errorf("%v: connection setup %v, want sub-millisecond scale", mode, r.Median)
		}
	}
}

func TestConnectionSetupFailoverSlower(t *testing.T) {
	std, err := ConnectionSetup(Standard, 3)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := ConnectionSetup(Failover, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	sizes := []int64{1024, 131072}
	pts, err := ClientToServerSend(Failover, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Median <= 0 || pts[1].Median <= pts[0].Median {
		t.Errorf("implausible curve: %+v", pts)
	}
}

func TestServerToClientTransferSmoke(t *testing.T) {
	pts, err := ServerToClientTransfer(Standard, []int64{4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Median <= 0 || pts[0].Median > 100*time.Millisecond {
		t.Errorf("4 KB reply took %v", pts[0].Median)
	}
}

func TestStreamRatesSmoke(t *testing.T) {
	std, err := StreamRates(Standard, 2*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := StreamRates(Failover, 2*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
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
	pts, err := FTPRates(Failover, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	rows, err := Ablation(2 * 1024 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d ablation rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.SendKBps <= 0 || r.RecvKBps <= 0 {
			t.Errorf("%s: zero rates", r.Name)
		}
	}
}
