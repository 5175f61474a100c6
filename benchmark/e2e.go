package main

import (
	"fmt"
	"time"
)

// The end-to-end metrics, in report order. Bounds live in BENCHMARK.json.
const (
	mSetup    = "setup_s"
	mHostNorm = "host_norm_ns_per_segment"
	mHeap     = "host_heap_MB"
	mGoodput  = "virt_goodput_kBps"
	mP50      = "virt_request_ms_p50"
	mP99      = "virt_request_ms_p99"
)

// e2eRun is an untraced run's measurements, kept whole for -selfcheck.
type e2eRun struct {
	res    *result
	virt   virtual
	rawNS  float64
	refMed float64
	// spread is, per host metric, the halfGap of the values the run's
	// median was taken over: what this run by itself could resolve.
	spread map[string]float64
}

// measureEndToEnd runs one workload with tracing, spans and digests off.
func measureEndToEnd(name string, t tier, seed int64, budget time.Duration) (*e2eRun, error) {
	w, err := newWorkload(name, t)
	if err != nil {
		return nil, err
	}
	nWin := w.pooled()
	m, err := newMeasurer().run(w, seed, phaseSpec{setups: t.setups, minWindows: nWin, budget: budget})
	if err != nil {
		return nil, err
	}
	w.teardown()
	perNorm, perRaw := m.hostUnits(w)
	normNS, rawNS := median(perNorm), median(perRaw)
	run := &e2eRun{virt: pool(m.windows, nWin), rawNS: rawNS, refMed: median(m.refNS),
		spread: map[string]float64{mSetup: halfGap(m.setupNorm), mHostNorm: halfGap(perNorm), mHeap: halfGap(m.heapMB)}}
	v := run.virt

	r := &result{Attempted: v.attempted, Failed: v.failed, quick: t.quick}
	r.put(mSetup, median(m.setupNorm), "s")
	r.put(mHostNorm, normNS, "ns")
	r.put(mHeap, median(m.heapMB), "MB")
	r.put(mGoodput, v.goodputKBps, "kB/s")
	r.put(mP50, v.p50ms, "ms")
	r.put(mP99, v.p99ms, "ms")
	r.extra = append(r.extra,
		fmt.Sprintf("latency samples %d (%d beyond p99; at least %d needed)", v.samples, v.beyond99, minTail),
		fmt.Sprintf("bench.raw_ns_per_segment %.1f  bench.ref_ns_med %.0f  bench.ref_ns_spread %.3f  bench.slices %d  bench.slice_iqr_ratio %.3f",
			rawNS, run.refMed, iqrRatio(m.refNS), len(m.slices), m.sliceIQR(w.refMix())),
		fmt.Sprintf("windows %d (first %d reported)  set-ups %d  window segments %d events %d", len(m.windows), nWin, len(m.setupNorm), v.segments, v.events),
	)
	if v.attempted < 1 {
		r.fail("no request attempted")
	}
	if v.failed != 0 {
		r.fail("%d of %d requests failed, were refused, were outstanding at the horizon or had a bad body", v.failed, v.attempted)
	}
	if !t.quick {
		checkStalledShare(r, v)
		if v.beyond99 < minTail {
			r.fail("%d latency samples put fewer than %d beyond p99", v.samples, minTail)
		}
	}
	r.Correct = len(r.checks) == 0
	run.res = r
	return run, nil
}

// checkStalledShare holds web-crash to the sizing that keeps the failover
// stall inside p99; other workloads record no stalled requests and pass.
func checkStalledShare(r *result, v virtual) {
	stalled, ok := v.notes[noteStalled]
	if !ok {
		return
	}
	share := 100 * stalled / float64(v.attempted)
	r.extra = append(r.extra, fmt.Sprintf("%.0f requests (%.2f %%) slower than %v: stalled by the crash", stalled, share, webStallFloor))
	if share < webStalledMin || share > webStalledMax {
		r.fail("stalled share %.2f %% outside [%g, %g] %%: the failover stall is no longer what virt_request_ms_p99 measures", share, webStalledMin, webStalledMax)
	}
}

func runEndToEnd(name string, t tier, c config) (*result, error) {
	run, err := measureEndToEnd(name, t, c.seed, c.budget())
	if err != nil {
		return nil, err
	}
	return run.res, nil
}
