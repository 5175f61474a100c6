// Command benchmark is the repo's performance ledger: four workloads over
// the public scenario facade, six end-to-end metrics on two clocks (virtual
// time, which is the paper's evaluation, and reference-normalised host
// time, which is the simulator's own cost), and a traced run that
// attributes the cost to the repo's packages from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value; the JSON shape is the driver's contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	names  []string // print order
	quick  bool
	checks []string // failed correctness checks
	extra  []string // context lines (sample counts, budget)
}

func (r *result) put(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, a ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, a...))
}

func (r *result) print(workload string, seed int64) {
	tag := ""
	if r.quick {
		tag = "  quick: true (never compare with full runs)"
	}
	fmt.Printf("workload %s  seed %d%s\n", workload, seed, tag)
	for _, n := range r.names {
		m := r.Metrics[n]
		fmt.Printf("  %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range r.extra {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	for _, c := range r.checks {
		fmt.Printf("  CHECK FAILED: %s\n", c)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	quick    bool
	self     bool
	child    string
}

// budget is how long the measured phase keeps slicing; the quick tier runs
// its fixed windows only.
func (c config) budget() time.Duration {
	if c.quick {
		return 0
	}
	return time.Duration(c.seconds) * time.Second
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "all", "stream-recv | stream-send | conn-scale | web-crash | all")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&c.seconds, "seconds", 20, "wall-clock seconds the measured phase lasts (the fixed window always completes; -quick runs only that)")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&c.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&c.quick, "quick", false, "tiny sizes, same metric names; numbers are not comparable with full runs")
	flag.BoolVar(&c.self, "selfcheck", false, "run every workload twice and compare against the bounds")
	flag.StringVar(&c.child, "ledger-child", "", "internal: run the fixed window and write coverage counters to this directory")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// One thread runs the simulation: the end-to-end numbers are per-core
	// costs, and a second P would only add scheduler noise.
	runtime.GOMAXPROCS(1)
	if err := refSelfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(dispatch(c))
}

func dispatch(c config) int {
	t := fullTier
	if c.quick {
		t = quickTier
	}
	names := workloadNames
	if c.workload != "all" {
		if _, err := newWorkload(c.workload, t); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		names = []string{c.workload}
	}
	if c.child != "" {
		if err := ledgerChild(names[0], t, c.seed, c.child); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ledger child:", err)
			return 1
		}
		return 0
	}
	if c.self {
		return selfcheck(c, t)
	}
	status := 0
	all := map[string]*result{}
	var total time.Duration
	for _, name := range names {
		start := time.Now()
		var res *result
		var err error
		if c.trace != 0 {
			res, err = runTraced(name, t, c)
		} else {
			res, err = runEndToEnd(name, t, c)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		wall := time.Since(start)
		total += wall
		res.extra = append(res.extra, fmt.Sprintf("wall %.1f s of the %d s a run may take", wall.Seconds(), runCapSeconds))
		res.print(name, c.seed)
		if !res.Correct {
			status = 1
		}
		all[name] = res
	}
	if len(names) > 1 {
		runs := 4 + 22*len(names)
		fmt.Printf("total wall %.1f s for %d workloads; the driver's %d runs at this mean take ≈ %.0f s of the %d s it allows\n",
			total.Seconds(), len(names), runs, total.Seconds()/float64(len(names))*float64(runs), driverCapSeconds)
		if err := json.NewEncoder(os.Stdout).Encode(all); err != nil {
			return 1
		}
		return status
	}
	if status != 0 {
		// A failed correctness check is an error, not a measurement.
		return status
	}
	if err := json.NewEncoder(os.Stdout).Encode(all[names[0]]); err != nil {
		return 1
	}
	return 0
}

// The contract's limits: on one run, and on the driver's 4 + 22 × workloads
// runs together.
const (
	runCapSeconds    = 180
	driverCapSeconds = 3420
)
