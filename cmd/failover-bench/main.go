// Command failover-bench regenerates every table and figure of the paper's
// evaluation (section 9) on the simulated testbed and prints each result
// next to the paper's published numbers. Absolute values depend on the
// calibration profile; the shapes and ratios are the reproduction target.
//
// Independent simulations fan out across the machine's CPUs; every result
// is a function of the per-simulation seeds only, so the output is
// identical for any worker count. Every experiment runs at the sizes of the
// committed record, so a full run reproduces BENCH_trajectory.json; with
// -json the run — configuration and results — is also written there. The
// command reads no wall clock: E13's live heap is the only host-dependent
// number it prints, and benchmark/ owns host time.
//
// Usage (the experiment lines are bench.Usage(), printed by -h and checked
// against this comment and README.md by a test):
//
//	failover-bench [-experiment NAME|all] [-workers N] [-json]
//	               [-metrics-out FILE] [-timeseries-out FILE]
//
//	experiments, in execution order:
//	  -experiment connsetup
//	  -experiment fig3
//	  -experiment fig4
//	  -experiment fig5
//	  -experiment fig6
//	  -experiment ablate
//	  -experiment failover
//	  -experiment faultsweep
//	  -experiment failtimeline
//	  -experiment adversary
//	  -experiment slo
//	  -experiment memscale
//	  -experiment stallscale
//
// With -metrics-out, one instrumented failover scenario is run after the
// experiments and its metrics registry is written to FILE in the Prometheus
// text exposition format.
//
// With -timeseries-out, two testbed cells under open-loop web traffic are
// run with a mid-window primary crash, every cell's registry is sampled on a
// fixed sim-time grid, and the merged fleet timeseries is written to FILE as
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcpfailover/internal/bench"
)

// trajectoryFile is where -json writes the machine-readable run record.
const trajectoryFile = "BENCH_trajectory.json"

// synopsis is the command's own half of the usage text; bench.Usage() is
// the other.
const synopsis = `failover-bench [-experiment NAME|all] [-workers N] [-json]
               [-metrics-out FILE] [-timeseries-out FILE]

experiments, in execution order:
`

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"which experiment to run: all, "+strings.Join(bench.ExperimentNames(), ", "))
		jsonOut    = flag.Bool("json", false, "also write "+trajectoryFile)
		metricsOut = flag.String("metrics-out", "",
			"write a metrics snapshot from one failover scenario to this file (Prometheus text)")
		timeseriesOut = flag.String("timeseries-out", "",
			"write a sampled metrics timeseries from two crashing testbed cells to this file (JSON)")
		workers = flag.Int("workers", bench.Workers, "simulation worker goroutines")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: %s%s\nflags:\n", synopsis, bench.Usage())
		flag.PrintDefaults()
	}
	flag.Parse()
	bench.Workers = *workers
	cfg := bench.Config{Experiments: []string{*experiment}}
	if err := run(cfg, *jsonOut, *metricsOut, *timeseriesOut); err != nil {
		fmt.Fprintln(os.Stderr, "failover-bench:", err)
		os.Exit(1)
	}
}

func run(cfg bench.Config, jsonOut bool, metricsOut, timeseriesOut string) error {
	t, err := bench.RunAll(cfg)
	if err != nil {
		return err
	}
	t.Render(os.Stdout)
	if metricsOut != "" {
		reg, err := bench.CollectMetrics()
		if err != nil {
			return err
		}
		if err := writeFile(metricsOut, reg.DumpText); err != nil {
			return err
		}
		fmt.Printf("wrote %s (metrics snapshot, one failover scenario)\n", metricsOut)
	}
	if timeseriesOut != "" {
		ts, err := bench.CollectTimeseries(0)
		if err != nil {
			return err
		}
		if err := writeFile(timeseriesOut, ts.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s (sampled fleet timeseries, two crashing testbed cells)\n", timeseriesOut)
	}
	if jsonOut {
		blob, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(trajectoryFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (configuration and results)\n", trajectoryFile)
	}
	return nil
}

// writeFile creates path and hands it to write; the first error wins.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
