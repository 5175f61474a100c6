package bench

import (
	"io"
	"time"
)

// Config selects which experiments RunAll executes and with what workload
// parameters. Every field but Experiments and Sizes is the destination of
// one axis of the experiment table, and so of one failover-bench flag.
type Config struct {
	// Experiments names the experiments to run (ExperimentNames lists
	// them). Empty or containing "all" runs everything. Execution order is
	// always the table's, regardless of the order named here.
	Experiments []string `json:"experiments"`
	Conns       int      `json:"conns"`  // connections for E1
	Reps        int      `json:"reps"`   // repetitions per data point (E2, E3, E5)
	Stream      int64    `json:"stream"` // stream bytes for E4 (ablations use a quarter)
	Runs        int      `json:"runs"`   // failover-latency runs (E6, E7)
	// Sizes overrides the message-size sweep for figures 3 and 4;
	// nil means Figure3Sizes.
	Sizes []int64 `json:"sizes,omitempty"`
	// FaultRates overrides the loss-rate axis of the fault sweep (E7);
	// nil means DefaultFaultRates.
	FaultRates []float64 `json:"fault_rates,omitempty"`
	// MemScale overrides the connection-count sweep of E13; nil means
	// DefaultMemScale.
	MemScale []int `json:"mem_scale,omitempty"`
	// SLOLoads overrides the offered-load axis of E12 (sessions/second);
	// nil means DefaultSLOLoads.
	SLOLoads []float64 `json:"slo_loads,omitempty"`
	// SLOWindow overrides E12's per-cell measurement window of virtual
	// time; zero means DefaultSLOWindow.
	SLOWindow time.Duration `json:"slo_window_ns,omitempty"`
	// SLOWorkload names the workload-zoo entry E12 drives; empty means
	// DefaultSLOWorkload.
	SLOWorkload string `json:"slo_workload,omitempty"`
	// StallScale overrides the connection-count axis of E14; nil means
	// DefaultStallScale.
	StallScale []int `json:"stall_scale,omitempty"`
}

// sizes returns the message-size sweep of figures 3 and 4.
func (c Config) sizes() []int64 {
	if c.Sizes == nil {
		return Figure3Sizes
	}
	return c.Sizes
}

// Results holds every experiment's outputs in config order. Every value but
// MemScale's live heap is a function of the simulation seeds only, so for a
// fixed Config the marshalled Results are byte-identical regardless of the
// worker count — the determinism test pins this down.
type Results struct {
	ConnSetup  []ConnSetupResult `json:"conn_setup,omitempty"` // standard, then failover
	Fig3Std    []TransferPoint   `json:"fig3_standard,omitempty"`
	Fig3Fo     []TransferPoint   `json:"fig3_failover,omitempty"`
	Fig4Std    []TransferPoint   `json:"fig4_standard,omitempty"`
	Fig4Fo     []TransferPoint   `json:"fig4_failover,omitempty"`
	Fig5       []RateResult      `json:"fig5,omitempty"` // standard, then failover
	Fig6Std    []FTPPoint        `json:"fig6_standard,omitempty"`
	Fig6Fo     []FTPPoint        `json:"fig6_failover,omitempty"`
	Ablation   []AblationRow     `json:"ablation,omitempty"`
	Failover   *FailoverResult   `json:"failover,omitempty"`
	FaultSweep []FaultPoint      `json:"fault_sweep,omitempty"`
	Timeline   *TimelineResult   `json:"timeline,omitempty"`
	Adversary  []AdversaryPoint  `json:"adversary,omitempty"`
	SLO        []SLOPoint        `json:"slo,omitempty"`
	StallScale []StallScalePoint `json:"stall_scale,omitempty"`
	// MemScale reads the live heap, so the determinism test compares only
	// the experiments above.
	MemScale []MemScalePoint `json:"mem_scale,omitempty"`
}

// Trajectory is the machine-readable record of one failover-bench run: the
// configuration and the experiment results.
type Trajectory struct {
	Config  Config  `json:"config"`
	Results Results `json:"results"`
}

// RunAll executes the configured experiments in table order and returns
// the full trajectory. Each experiment internally fans its independent
// simulations across Workers goroutines.
func RunAll(cfg Config) (*Trajectory, error) {
	want, err := cfg.enabled()
	if err != nil {
		return nil, err
	}
	t := &Trajectory{Config: cfg}
	for i := range table {
		if !want[table[i].Name] {
			continue
		}
		if err := table[i].Run(cfg, &t.Results); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Render prints every configured experiment's results in table order, each
// next to the paper's published numbers.
func (t *Trajectory) Render(w io.Writer) {
	want, _ := t.Config.enabled() // an unknown name renders nothing, as it ran nothing
	for i := range table {
		if want[table[i].Name] {
			table[i].Render(w, t.Config, &t.Results)
		}
	}
}
