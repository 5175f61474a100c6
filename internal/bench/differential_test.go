package bench

import (
	"bytes"
	"testing"

	"tcpfailover/internal/sim"
)

// TestResultsIdenticalAcrossTimerBackends is the differential gate for the
// timing wheel: the wheel only stages events — execution order is always
// decided by the (when, seq) heap — so the harness's experiments must produce
// byte-identical results whether schedulers use the wheel or the plain
// heap. Any divergence means the wheel changed event order, which would
// silently invalidate every deterministic result in the suite. CI runs this
// under -race together with the worker-count test, covering both axes
// (backend × parallelism) of the determinism contract.
func TestResultsIdenticalAcrossTimerBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	run := func(b sim.Backend) []byte {
		old := sim.DefaultBackend()
		sim.SetDefaultBackend(b)
		defer sim.SetDefaultBackend(old)
		blob, err := smallResults()
		if err != nil {
			t.Fatalf("backend=%v: %v", b, err)
		}
		return blob
	}
	wheel := run(sim.BackendWheel)
	heap := run(sim.BackendHeap)
	if !bytes.Equal(wheel, heap) {
		t.Errorf("results differ between wheel and heap timer backends:\n--- wheel ---\n%s\n--- heap ---\n%s",
			wheel, heap)
	}
}
