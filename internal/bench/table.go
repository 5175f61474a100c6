package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiment is one row of the experiment table — everything the harness
// and the failover-bench command know about an experiment. RunAll, Render,
// ExperimentNames and the command's usage text walk the table, so adding an
// experiment is adding a row (plus its fields in Results).
type Experiment struct {
	Name string
	// Keys are the JSON keys of the Results fields Run fills and Render
	// reads; no other row touches them.
	Keys []string
	// Run executes the experiment at the record's sizes and stores its
	// results in r.
	Run func(r *Results) error
	// Render prints r's share of the results the way the paper's tables
	// do. It runs no simulation: a trajectory read back from its JSON file
	// renders the same bytes.
	Render func(w io.Writer, r *Results)
}

// The sizes of the record: every figure in BENCH_trajectory.json and
// EXPERIMENTS.md comes from them. The sweeps (Figure3Sizes and the Default*
// axes) live beside their experiments.
const (
	recordConns  = 51        // E1 connections per mode
	recordReps   = 5         // repetitions per data point (E2, E3, E5)
	recordStream = 100 << 20 // E4 stream bytes; the ablations use a quarter
	recordRuns   = 9         // crash runs per E7 cell
)

// bothModes runs one experiment for the baseline and then the replicated
// system, naming the mode that failed.
func bothModes[T any](name string, std, fo *T, run func(Mode) (T, error)) (err error) {
	if *std, err = run(Standard); err != nil {
		return fmt.Errorf("%s standard: %w", name, err)
	}
	if *fo, err = run(Failover); err != nil {
		return fmt.Errorf("%s failover: %w", name, err)
	}
	return nil
}

// table lists the experiments in canonical execution order, which is the E
// numbering of EXPERIMENTS.md (the ablations follow the figure they ablate);
// results are emitted in this order no matter how Config.Experiments is
// spelled.
var table = []Experiment{
	{
		Name: "connsetup", Keys: []string{"conn_setup"},
		Run: func(r *Results) error {
			for _, mode := range []Mode{Standard, Failover} {
				res, err := ConnectionSetup(mode, recordConns)
				if err != nil {
					return fmt.Errorf("connsetup %s: %w", mode, err)
				}
				r.ConnSetup = append(r.ConnSetup, res)
			}
			return nil
		},
		Render: renderConnSetup,
	},
	{
		Name: "fig3", Keys: []string{"fig3_standard", "fig3_failover"},
		Run: func(r *Results) error {
			return bothModes("fig3", &r.Fig3Std, &r.Fig3Fo, func(m Mode) ([]TransferPoint, error) {
				return ClientToServerSend(m, Figure3Sizes, recordReps)
			})
		},
		Render: renderFig3,
	},
	{
		Name: "fig4", Keys: []string{"fig4_standard", "fig4_failover"},
		Run: func(r *Results) error {
			return bothModes("fig4", &r.Fig4Std, &r.Fig4Fo, func(m Mode) ([]TransferPoint, error) {
				return ServerToClientTransfer(m, Figure3Sizes, recordReps)
			})
		},
		Render: renderFig4,
	},
	{
		Name: "fig5", Keys: []string{"fig5"},
		Run: func(r *Results) error {
			var std, fo RateResult
			err := bothModes("fig5", &std, &fo, func(m Mode) (RateResult, error) {
				return StreamRates(m, recordStream)
			})
			r.Fig5 = []RateResult{std, fo}
			return err
		},
		Render: renderFig5,
	},
	{
		Name: "fig6", Keys: []string{"fig6_standard", "fig6_failover"},
		Run: func(r *Results) error {
			return bothModes("fig6", &r.Fig6Std, &r.Fig6Fo, func(m Mode) ([]FTPPoint, error) {
				return FTPRates(m, recordReps)
			})
		},
		Render: renderFig6,
	},
	{
		Name: "ablate", Keys: []string{"ablation"},
		Run: func(r *Results) (err error) {
			r.Ablation, err = Ablation(recordStream / 4)
			return err
		},
		Render: renderAblation,
	},
	{
		Name: "faultsweep", Keys: []string{"fault_sweep"},
		Run: func(r *Results) (err error) {
			r.FaultSweep, err = FaultSweep(DefaultFaultRates, recordRuns)
			return err
		},
		Render: renderFaultSweep,
	},
	{
		Name: "adversary", Keys: []string{"adversary"},
		Run: func(r *Results) (err error) {
			r.Adversary, err = AdversaryMatrix()
			return err
		},
		Render: renderAdversary,
	},
	{
		Name: "slo", Keys: []string{"slo"},
		Run: func(r *Results) (err error) {
			r.SLO, err = SLO(DefaultSLOLoads, DefaultSLOWindow)
			return err
		},
		Render: renderSLO,
	},
	{
		Name: "memscale", Keys: []string{"mem_scale"},
		Run: func(r *Results) (err error) {
			r.MemScale, err = MemScale(DefaultMemScale)
			return err
		},
		Render: renderMemScale,
	},
	{
		Name: "stallscale", Keys: []string{"stall_scale"},
		Run: func(r *Results) (err error) {
			r.StallScale, err = StallScale(DefaultStallScale)
			return err
		},
		Render: renderStallScale,
	},
}

// ExperimentNames lists the valid experiment names in canonical execution
// order (plus the "all" pseudo-name accepted by Config.Experiments).
func ExperimentNames() []string {
	names := make([]string, len(table))
	for i := range table {
		names[i] = table[i].Name
	}
	return names
}

// enabled expands Config.Experiments into a membership set, rejecting
// unknown names.
func (c Config) enabled() (map[string]bool, error) {
	all := ExperimentNames()
	names := c.Experiments
	if len(names) == 0 {
		names = []string{"all"}
	}
	set := make(map[string]bool, len(all))
	for _, name := range names {
		switch {
		case name == "all":
			for _, e := range all {
				set[e] = true
			}
		case slices.Contains(all, name):
			set[name] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(all, ", "))
		}
	}
	return set, nil
}

// Usage returns the experiment half of the command's synopsis: one line
// per experiment, in execution order.
func Usage() string {
	var b strings.Builder
	for i := range table {
		fmt.Fprintf(&b, "  -experiment %s\n", table[i].Name)
	}
	return b.String()
}
