package main

import (
	"fmt"
	"math"
)

// bounds is the share of the parent's median by which each end-to-end
// metric may get worse; BENCHMARK.json carries the same table (a test keeps
// the two equal). Each is at least three times the widest interquartile
// spread the metric showed across ten seeds on any workload (README,
// "Baseline"), since one bound serves all four workloads.
var bounds = map[string]float64{
	mSetup:    0.25,
	mHostNorm: 0.2,
	mHeap:     0.15,
	mGoodput:  0.12,
	mP50:      0.1,
	mP99:      0.05,
}

// hostMetrics are measured on the host clock and carry noise; the rest are
// functions of the seed and must repeat exactly.
var hostMetrics = map[string]bool{mSetup: true, mHostNorm: true, mHeap: true}

// verdict judges two runs of one seed on one metric: the relative
// difference, what to call it, and whether the selfcheck still passes.
// Virtual metrics must be equal. A host-clock difference beyond its bound
// is a finding only if both runs could resolve it: when the two halves of
// either run (of its slices or windows, its set-ups) already disagree by
// more than the bound (inRun, the larger of the two halfGaps), the box was
// too unsteady and the pair is unresolved.
func verdict(metric string, x, y, inRun float64) (diff float64, v string, ok bool) {
	if x != 0 {
		diff = math.Abs(y-x) / math.Abs(x)
	}
	switch {
	case !hostMetrics[metric] && x != y:
		return diff, "NOT DETERMINISTIC", false
	case !hostMetrics[metric] || diff <= bounds[metric]:
		return diff, "unchanged", true
	case inRun > bounds[metric]:
		return diff, "unresolved", true
	}
	return diff, "DIFFERS", false
}

// selfcheck runs every workload twice back to back with the same seed and
// compares the pair against the benchmark's own bounds.
func selfcheck(c config, t tier) int {
	names := workloadNames
	if c.workload != "all" {
		names = []string{c.workload}
	}
	budget := c.budget()
	status := 0
	fmt.Printf("%-12s %-26s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "run 1", "run 2", "diff", "bound", "in-run", "verdict")
	for _, name := range names {
		var runs [2]*e2eRun
		for i := range runs {
			r, err := measureEndToEnd(name, t, c.seed, budget)
			if err != nil {
				fmt.Printf("%s: run %d: %v\n", name, i+1, err)
				return 1
			}
			if !r.res.Correct {
				r.res.print(name, c.seed)
				status = 1
			}
			runs[i] = r
		}
		a, b := runs[0], runs[1]
		for _, metric := range []string{mSetup, mHostNorm, mHeap, mGoodput, mP50, mP99} {
			x, y := a.res.Metrics[metric].Value, b.res.Metrics[metric].Value
			inRun := max(a.spread[metric], b.spread[metric])
			diff, v, ok := verdict(metric, x, y, inRun)
			if !ok {
				status = 1
			}
			spread := ""
			if hostMetrics[metric] {
				spread = fmt.Sprintf("%.1f%%", 100*inRun)
			}
			fmt.Printf("%-12s %-26s %14.6g %14.6g %8.2f%% %6.0f%% %7s  %s\n", name, metric, x, y, 100*diff, 100*bounds[metric], spread, v)
		}
		exact := []struct {
			what string
			x, y int64
		}{
			{"ops_attempted", a.virt.attempted, b.virt.attempted},
			{"ops_failed", a.virt.failed, b.virt.failed},
			{"window events", a.virt.events, b.virt.events},
			{"window segments", a.virt.segments, b.virt.segments},
		}
		for _, e := range exact {
			verdict := "equal"
			if e.x != e.y {
				verdict, status = "NOT DETERMINISTIC", 1
			}
			fmt.Printf("%-12s %-26s %14d %14d %9s %7s %7s  %s\n", name, e.what, e.x, e.y, "", "exact", "", verdict)
		}
		fmt.Printf("%-12s %-26s %14.1f %14.1f %8.2f%%                  what normalisation removed (ref %.2f / %.2f ms)\n",
			name, "bench.raw_ns_per_segment", a.rawNS, b.rawNS, 100*math.Abs(b.rawNS-a.rawNS)/a.rawNS, a.refMed/1e6, b.refMed/1e6)
	}
	return status
}
