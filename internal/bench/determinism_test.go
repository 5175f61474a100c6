package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
)

// smallRun is what one entry of smallRuns produces: its table row's share of
// Results and, for an entry whose output Results does not hold, that output.
type smallRun struct {
	Results
	Metrics    *obs.Registry   `json:"-"` // CollectMetrics' registry
	Timeseries *obs.Timeseries `json:"-"` // CollectTimeseries' fleet view
}

// smallSizes are E2's and E3's message sizes at unit-test size,
// smallFaultRuns E7's runs per cell, and smallSLOLoads E12's offered loads.
var (
	smallSizes     = []int64{4096, 131072}
	smallFaultRuns = 2
	smallSLOLoads  = []float64{20, 60}
)

// smallRuns names a run at unit-test size for every table row that
// smallExempt does not name, and for the two artifact collectors behind
// failover-bench -metrics-out and -timeseries-out. Each still fans out, over
// cells, reps or rows, so that Workers = 4 spreads it across goroutines.
var smallRuns = map[string]func(s *smallRun) error{
	"connsetup": func(s *smallRun) error {
		s.ConnSetup = make([]ConnSetupResult, 2)
		return bothModes("connsetup", &s.ConnSetup[0], &s.ConnSetup[1], func(m Mode) (ConnSetupResult, error) {
			return ConnectionSetup(m, 3)
		})
	},
	"fig3": func(s *smallRun) error {
		return bothModes("fig3", &s.Fig3Std, &s.Fig3Fo, func(m Mode) ([]TransferPoint, error) {
			return ClientToServerSend(m, smallSizes, 2)
		})
	},
	"fig4": func(s *smallRun) error {
		return bothModes("fig4", &s.Fig4Std, &s.Fig4Fo, func(m Mode) ([]TransferPoint, error) {
			return ServerToClientTransfer(m, smallSizes, 2)
		})
	},
	"fig5": func(s *smallRun) error {
		s.Fig5 = make([]RateResult, 2)
		return bothModes("fig5", &s.Fig5[0], &s.Fig5[1], func(m Mode) (RateResult, error) {
			return StreamRates(m, 256<<10)
		})
	},
	"fig6": func(s *smallRun) error {
		return bothModes("fig6", &s.Fig6Std, &s.Fig6Fo, func(m Mode) ([]FTPPoint, error) {
			return FTPRates(m, 2)
		})
	},
	"ablate": func(s *smallRun) (err error) {
		s.Ablation, err = Ablation(256 << 10)
		return err
	},
	"faultsweep": func(s *smallRun) (err error) {
		s.FaultSweep, err = FaultSweep([]float64{0, 0.02}, smallFaultRuns)
		return err
	},
	"adversary": func(s *smallRun) (err error) {
		s.Adversary, err = AdversaryMatrix()
		return err
	},
	"slo": func(s *smallRun) (err error) {
		s.SLO, err = SLO(smallSLOLoads, 2*time.Second)
		return err
	},
	"stallscale": func(s *smallRun) error {
		p, err := runStallScale(0, 300, 2*time.Second)
		s.StallScale = []StallScalePoint{p}
		return err
	},
	"CollectMetrics": func(s *smallRun) (err error) {
		s.Metrics, err = CollectMetrics()
		return err
	},
	"CollectTimeseries": func(s *smallRun) (err error) {
		s.Timeseries, err = CollectTimeseries(200 * time.Millisecond)
		return err
	},
}

// smallExempt names the table rows that have no small run, with the reason.
var smallExempt = map[string]string{
	"memscale": "its fields read the live heap; TestMemScaleGates gates it",
}

// smallMemo holds each entry's run at Workers = 1 once it has run.
var smallMemo = map[string]*smallRun{}

// small returns the named entry's run at Workers = 1, running it the first
// time only: the worker-count test and the shape tests read the same run.
func small(t *testing.T, name string) *smallRun {
	t.Helper()
	if s, ok := smallMemo[name]; ok {
		return s
	}
	s, err := runSmall(name, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	smallMemo[name] = s
	return s
}

// runSmall runs the named entry with Workers set to workers.
func runSmall(name string, workers int) (*smallRun, error) {
	old := Workers
	Workers = workers
	defer func() { Workers = old }()
	s := new(smallRun)
	return s, smallRuns[name](s)
}

// output is every byte the named entry must reproduce at any worker count:
// its JSON, its row's rendering and the artifact a collector writes.
func (s *smallRun) output(name string) ([]byte, error) {
	blob, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return nil, err
	}
	b := bytes.NewBuffer(blob)
	if i := slices.IndexFunc(table, func(e Experiment) bool { return e.Name == name }); i >= 0 {
		table[i].Render(b, &s.Results)
	}
	if s.Metrics != nil {
		err = s.Metrics.DumpText(b)
	}
	if s.Timeseries != nil {
		err = s.Timeseries.WriteJSON(b)
	}
	return b.Bytes(), err
}

// TestExperimentsIdenticalAcrossWorkerCounts is the harness's core
// invariant: every simulation is fully determined by its seed, and results
// are gathered in config order, so each small run's JSON, rendering and
// artifact are byte-identical whether its simulations ran on one goroutine
// or on four. A table row without a small run fails it, unless smallExempt
// says why.
func TestExperimentsIdenticalAcrossWorkerCounts(t *testing.T) {
	var names []string
	for _, e := range table {
		if _, ok := smallExempt[e.Name]; !ok {
			names = append(names, e.Name)
		}
	}
	names = append(names, "CollectMetrics", "CollectTimeseries")
	for name := range smallRuns {
		if !slices.Contains(names, name) {
			t.Errorf("small run %q is for no table row without an exemption, and no collector", name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if smallRuns[name] == nil {
				t.Fatalf("table row %q has no small run and no exemption", name)
			}
			serial, err := small(t, name).output(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := runSmall(name, 4)
			if err != nil {
				t.Fatalf("workers=4: %v", err)
			}
			parallel, err := s.output(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("output differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
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
