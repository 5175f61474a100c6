package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"tcpfailover/internal/netbuf"
)

// smallResults runs E1, E2 and E4 at sizes small enough to run twice in a
// unit test, each still covering its experiment family's fan-out shape, and
// returns the marshalled results.
func smallResults() ([]byte, error) {
	r := Results{ConnSetup: make([]ConnSetupResult, 2), Fig5: make([]RateResult, 2)}
	var errs [3]error
	errs[0] = bothModes("connsetup", &r.ConnSetup[0], &r.ConnSetup[1], func(m Mode) (ConnSetupResult, error) {
		return ConnectionSetup(m, 3)
	})
	errs[1] = bothModes("fig3", &r.Fig3Std, &r.Fig3Fo, func(m Mode) ([]TransferPoint, error) {
		return ClientToServerSend(m, []int64{64, 4096}, 2)
	})
	errs[2] = bothModes("fig5", &r.Fig5[0], &r.Fig5[1], func(m Mode) (RateResult, error) {
		return StreamRates(m, 256*1024)
	})
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	return json.MarshalIndent(r, "", " ")
}

// TestResultsIdenticalAcrossWorkerCounts is the harness's core invariant:
// every simulation is fully determined by its seed, and aggregation happens
// in config order, so the marshalled results must be byte-identical whether
// the simulations ran serially or fanned out across goroutines.
func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	run := func(workers int) []byte {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		blob, err := smallResults()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return blob
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestNoBufferLeaksAcrossExperiments runs a workload under netbuf's
// leak accounting. Simulations end with packets still in flight (owned by
// queued events), so exact-zero is only checkable per released buffer:
// the live count must never go negative — a double release would panic
// first — and the count of buffers leaked per simulation must stay small
// and bounded, not proportional to the bytes transferred.
func TestNoBufferLeaksAcrossExperiments(t *testing.T) {
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)

	const total = 512 * 1024
	if _, err := StreamRates(Standard, total); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamRates(Failover, total); err != nil {
		t.Fatal(err)
	}
	// ~700 buffers would correspond to one windowful of in-flight segments
	// per abandoned simulation; a copy leak on the data path would scale
	// with the ~1400 segments of payload instead.
	if live := netbuf.Live(); live < 0 || live > 100 {
		t.Errorf("live buffers after experiments = %d, want a small non-negative residue", live)
	}
}
