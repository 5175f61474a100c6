package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFaultSweepDeterministicAcrossWorkerCounts pins the fault subsystem's
// core guarantee end to end: every impairment draws randomness from a
// stream derived only from the simulation seed, so a faulty run is
// byte-identical no matter how the simulations are scheduled across
// goroutines.
func TestFaultSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	run := func(workers int) []byte {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		points, err := FaultSweep([]float64{0, 0.02}, 2)
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
		t.Errorf("fault sweep differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFaultSweepShape sanity-checks the sweep's physics on a tiny grid:
// the clean cell is run once and drops nothing, loss injects drops, streams
// survive intact, and no lossy cell outruns the clean one.
func TestFaultSweepShape(t *testing.T) {
	points, err := FaultSweep([]float64{0, 0.02}, 2)
	if err != nil {
		t.Fatal(err)
	}
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
