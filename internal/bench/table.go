package bench

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Experiment is one row of the experiment table — everything the harness
// and the failover-bench command know about an experiment. RunAll, Render,
// ExperimentNames, the command's flags, its usage text and -list all walk
// the table, so adding an experiment is adding a row (plus its fields in
// Config and Results).
type Experiment struct {
	Name string
	// Keys are the JSON keys of the Results fields Run fills and Render
	// reads; no other row touches them.
	Keys []string
	// Axes are the workload parameters the experiment reads from Config.
	// An axis shared by several rows is one *Axis listed on each.
	Axes []*Axis
	// Run executes the experiment and stores its results in r.
	Run func(cfg Config, r *Results) error
	// Render prints r's share of the results the way the paper's tables
	// do. It runs no simulation: a trajectory read back from its JSON file
	// renders the same bytes.
	Render func(w io.Writer, cfg Config, r *Results)
}

// Axis is one workload parameter: a command-line flag and the Config field
// it fills.
type Axis struct {
	Flag  string // flag name
	Arg   string // placeholder for the value in the usage synopsis
	Usage string // flag help text
	// Dest returns the Config field the flag fills. A *int, *int64,
	// *time.Duration or *string is a scalar axis, registered as a flag of
	// that type defaulting to Default. A *[]int or *[]float64 is a list
	// axis: a string flag holding comma-separated entries, where empty
	// leaves the field nil and the experiment falls back to its own default
	// sweep (which Usage quotes).
	Dest    func(*Config) any
	Default any
	// Accept says whether one parsed entry of a list axis is in range;
	// Want describes the accepted range for the error message.
	Accept func(v float64) bool
	Want   string
}

func positive(v float64) bool { return v > 0 }

// The axes more than one experiment reads.
var (
	axReps = &Axis{Flag: "reps", Arg: "N", Usage: "repetitions per data point",
		Default: 5, Dest: func(c *Config) any { return &c.Reps }}
	axStream = &Axis{Flag: "stream", Arg: "BYTES", Usage: "stream length for figure 5 (bytes)",
		Default: int64(100 * 1024 * 1024), Dest: func(c *Config) any { return &c.Stream }}
	axRuns = &Axis{Flag: "runs", Arg: "N", Usage: "failover-latency runs",
		Default: 9, Dest: func(c *Config) any { return &c.Runs }}
)

// countsAxis is a list axis of positive connection counts.
func countsAxis(flag, arg, usage string, dest func(*Config) any) *Axis {
	return &Axis{Flag: flag, Arg: arg, Usage: usage, Dest: dest, Accept: positive, Want: "a positive count"}
}

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
		Axes: []*Axis{{Flag: "conns", Arg: "N", Usage: "connections for the setup-time experiment",
			Default: 51, Dest: func(c *Config) any { return &c.Conns }}},
		Run: func(c Config, r *Results) error {
			for _, mode := range []Mode{Standard, Failover} {
				res, err := ConnectionSetup(mode, c.Conns)
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
		Name: "fig3", Keys: []string{"fig3_standard", "fig3_failover"}, Axes: []*Axis{axReps},
		Run: func(c Config, r *Results) error {
			return bothModes("fig3", &r.Fig3Std, &r.Fig3Fo, func(m Mode) ([]TransferPoint, error) {
				return ClientToServerSend(m, c.sizes(), c.Reps)
			})
		},
		Render: renderFig3,
	},
	{
		Name: "fig4", Keys: []string{"fig4_standard", "fig4_failover"}, Axes: []*Axis{axReps},
		Run: func(c Config, r *Results) error {
			return bothModes("fig4", &r.Fig4Std, &r.Fig4Fo, func(m Mode) ([]TransferPoint, error) {
				return ServerToClientTransfer(m, c.sizes(), c.Reps)
			})
		},
		Render: renderFig4,
	},
	{
		Name: "fig5", Keys: []string{"fig5"}, Axes: []*Axis{axStream},
		Run: func(c Config, r *Results) error {
			var std, fo RateResult
			err := bothModes("fig5", &std, &fo, func(m Mode) (RateResult, error) {
				return StreamRates(m, c.Stream)
			})
			r.Fig5 = []RateResult{std, fo}
			return err
		},
		Render: renderFig5,
	},
	{
		Name: "fig6", Keys: []string{"fig6_standard", "fig6_failover"}, Axes: []*Axis{axReps},
		Run: func(c Config, r *Results) error {
			return bothModes("fig6", &r.Fig6Std, &r.Fig6Fo, func(m Mode) ([]FTPPoint, error) {
				return FTPRates(m, c.Reps)
			})
		},
		Render: renderFig6,
	},
	{
		Name: "ablate", Keys: []string{"ablation"}, Axes: []*Axis{axStream},
		Run: func(c Config, r *Results) (err error) {
			r.Ablation, err = Ablation(c.Stream / 4)
			return err
		},
		Render: renderAblation,
	},
	{
		Name: "failover", Keys: []string{"failover"}, Axes: []*Axis{axRuns},
		Run: func(c Config, r *Results) error {
			res, err := FailoverLatency(c.Runs)
			r.Failover = &res
			return err
		},
		Render: renderFailover,
	},
	{
		Name: "faultsweep", Keys: []string{"fault_sweep"},
		Axes: []*Axis{axRuns, {Flag: "faultrates", Arg: "R1,R2,...",
			Usage:  "comma-separated loss rates for the fault sweep (default 0,0.005,0.01,0.02,0.05)",
			Accept: func(v float64) bool { return v >= 0 && v <= 1 }, Want: "0..1",
			Dest: func(c *Config) any { return &c.FaultRates }}},
		Run: func(c Config, r *Results) (err error) {
			r.FaultSweep, err = FaultSweep(c.FaultRates, c.Runs)
			return err
		},
		Render: renderFaultSweep,
	},
	{
		Name: "failtimeline", Keys: []string{"timeline"}, Axes: []*Axis{axRuns},
		Run: func(c Config, r *Results) error {
			res, err := FailoverTimeline(c.Runs)
			r.Timeline = &res
			return err
		},
		Render: renderTimeline,
	},
	{
		Name: "adversary", Keys: []string{"adversary"},
		Run: func(_ Config, r *Results) (err error) {
			r.Adversary, err = AdversaryMatrix()
			return err
		},
		Render: renderAdversary,
	},
	{
		Name: "slo", Keys: []string{"slo"},
		Axes: []*Axis{
			{Flag: "sloloads", Arg: "L1,L2,...",
				Usage:  "comma-separated offered loads for the SLO experiment, sessions/second (default 40,160,320)",
				Accept: positive, Want: "a positive rate",
				Dest: func(c *Config) any { return &c.SLOLoads }},
			{Flag: "slowindow", Arg: "D", Usage: "measurement window of virtual time per SLO cell (default 8s)",
				Default: time.Duration(0), Dest: func(c *Config) any { return &c.SLOWindow }},
			{Flag: "sloworkload", Arg: "NAME",
				Usage:   "workload-zoo entry for the SLO experiment: web, flash, diurnal (default web)",
				Default: "", Dest: func(c *Config) any { return &c.SLOWorkload }},
		},
		Run: func(c Config, r *Results) (err error) {
			r.SLO, err = SLO(c.SLOWorkload, c.SLOLoads, c.SLOWindow)
			return err
		},
		Render: renderSLO,
	},
	{
		Name: "memscale", Keys: []string{"mem_scale"},
		Axes: []*Axis{countsAxis("memscale", "N1,N2,...",
			"comma-separated connection counts for the memory-scale sweep (default 100000,500000,1000000)",
			func(c *Config) any { return &c.MemScale })},
		Run: func(c Config, r *Results) (err error) {
			r.MemScale, err = MemScale(c.MemScale)
			return err
		},
		Render: renderMemScale,
	},
	{
		Name: "stallscale", Keys: []string{"stall_scale"},
		Axes: []*Axis{countsAxis("stallscale", "N1,N2,...",
			"comma-separated connection counts for the stall-attribution experiment (default 1000,10000,100000)",
			func(c *Config) any { return &c.StallScale })},
		Run: func(c Config, r *Results) (err error) {
			r.StallScale, err = StallScale(c.StallScale, 0)
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
// per experiment, in execution order, with the flags that size it.
func Usage() string {
	var b strings.Builder
	for i := range table {
		line := fmt.Sprintf("  -experiment %-12s", table[i].Name)
		for _, ax := range table[i].Axes {
			line += fmt.Sprintf(" [-%s %s]", ax.Flag, ax.Arg)
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// RegisterFlags defines one flag per axis of the table on fs, each writing
// its Config field in cfg. Call the returned function after fs.Parse: it
// parses the list axes, whose flags hold their comma-separated text until
// then, and reports the first malformed entry.
func RegisterFlags(fs *flag.FlagSet, cfg *Config) (parseLists func() error) {
	type listFlag struct {
		ax   *Axis
		text *string
	}
	var lists []listFlag
	for i := range table {
		for _, ax := range table[i].Axes {
			if fs.Lookup(ax.Flag) != nil {
				continue // shared axis, registered by an earlier row
			}
			switch dst := ax.Dest(cfg).(type) {
			case *int:
				fs.IntVar(dst, ax.Flag, ax.Default.(int), ax.Usage)
			case *int64:
				fs.Int64Var(dst, ax.Flag, ax.Default.(int64), ax.Usage)
			case *time.Duration:
				fs.DurationVar(dst, ax.Flag, ax.Default.(time.Duration), ax.Usage)
			case *string:
				fs.StringVar(dst, ax.Flag, ax.Default.(string), ax.Usage)
			default:
				lists = append(lists, listFlag{ax, fs.String(ax.Flag, "", ax.Usage)})
			}
		}
	}
	return func() error {
		for _, l := range lists {
			var err error
			switch dst := l.ax.Dest(cfg).(type) {
			case *[]int:
				*dst, err = parseList(l.ax, *l.text, strconv.Atoi)
			case *[]float64:
				*dst, err = parseList(l.ax, *l.text, func(s string) (float64, error) {
					return strconv.ParseFloat(s, 64)
				})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// parseList parses the text of a list axis; empty means nil, the
// experiment's default sweep.
func parseList[T int | float64](ax *Axis, s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil || !ax.Accept(float64(v)) {
			return nil, fmt.Errorf("bad -%s entry %q (want %s)", ax.Flag, p, ax.Want)
		}
		out = append(out, v)
	}
	return out, nil
}
