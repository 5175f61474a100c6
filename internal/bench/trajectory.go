package bench

import "io"

// Config selects which experiments RunAll executes. Each runs at the
// record's sizes.
type Config struct {
	// Experiments names the experiments to run (ExperimentNames lists
	// them). Empty or containing "all" runs everything. Execution order is
	// always the table's, regardless of the order named here.
	Experiments []string `json:"experiments"`
}

// Results holds every experiment's outputs in config order. Every value but
// MemScale's live heap is a function of the simulation seeds only, so the
// marshalled Results are byte-identical regardless of the worker count —
// the determinism test pins this down.
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
	FaultSweep []FaultPoint      `json:"fault_sweep,omitempty"`
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
		if err := table[i].Run(&t.Results); err != nil {
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
			table[i].Render(w, &t.Results)
		}
	}
}
