package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/obs"
)

// --- E9 (extension): failover timeline reconstruction --------------------------

// TimelineResult reports E9: one connection's failover stall decomposed
// into the phases of obs.StallBreakdown — E14's model at a fleet of one —
// medians over N crash runs. Sample is run 0's breakdown; everything here
// is a function of the seeds only, so the marshalled result is
// byte-identical across runs — the determinism test pins that down.
type TimelineResult struct {
	N               int                `json:"n"`
	DetectionMedian time.Duration      `json:"detection_median_ns"`
	AnnounceMedian  time.Duration      `json:"announce_median_ns"`
	ResumeMedian    time.Duration      `json:"resume_median_ns"`
	RecoveryMedian  time.Duration      `json:"recovery_median_ns"`
	TotalMedian     time.Duration      `json:"total_median_ns"`
	TotalMax        time.Duration      `json:"total_max_ns"`
	Sample          obs.StallBreakdown `json:"sample"`
}

// FailoverTimeline crashes the primary mid-stream n times with span
// recording on and scores each run's one connection span against the
// failure/detect/takeover marks. The router is given a non-zero ARP-table
// update delay so the redirection phase is visible in the breakdown.
func FailoverTimeline(n int) (TimelineResult, error) {
	const total = 512 * 1024
	stalls := make([]obs.StallBreakdown, n)
	err := parallelEach(n, func(i int) error {
		_, st, err := spanCrashRun(int64(9000+i), total, int64(total/4)+int64(i)*int64(total/(2*n)))
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		stalls[i] = st
		return nil
	})
	if err != nil {
		return TimelineResult{}, err
	}
	var detection, announce, resume, recovery, totals metrics.Durations
	for _, st := range stalls {
		detection.Add(st.Detection)
		announce.Add(st.Announce)
		resume.Add(st.Resume)
		recovery.Add(st.Recovery)
		totals.Add(st.Total)
	}
	return TimelineResult{
		N:               n,
		DetectionMedian: detection.Median(),
		AnnounceMedian:  announce.Median(),
		ResumeMedian:    resume.Median(),
		RecoveryMedian:  recovery.Median(),
		TotalMedian:     totals.Median(),
		TotalMax:        totals.Max(),
		Sample:          stalls[0],
	}, nil
}

// spanCrashRun is E9's run: a push stream of total bytes with span
// recording on, the primary crashed once crashAt bytes have arrived, read
// to EOF intact, and its one connection span scored.
func spanCrashRun(seed, total, crashAt int64) (*crashRun, obs.StallBreakdown, error) {
	var st obs.StallBreakdown
	r, err := newCrashRun(seed, total, func(o *tcpfailover.Options) {
		o.RouterARPDelay = 500 * time.Microsecond
		o.Spans = true
	})
	if err == nil {
		err = r.run("span crash run", crashAt, nil)
	}
	if err != nil {
		return nil, st, err
	}
	if !r.intact() {
		return nil, st, fmt.Errorf("stream not intact (received=%d bad=%d)", r.recv.Received, r.recv.BadAt)
	}
	spans := r.sc.Spans.Spans()
	if len(spans) != 1 {
		return nil, st, fmt.Errorf("%d connection spans, want 1", len(spans))
	}
	st, ok := r.sc.Spans.Stall(&spans[0])
	if !ok {
		return nil, st, fmt.Errorf("span %+v records no completed stall", spans[0])
	}
	return r, st, nil
}

func renderTimeline(w io.Writer, res *Results) {
	r := res.Timeline
	if r == nil {
		return
	}
	fmt.Fprintln(w, "=== E9 (extension): failover timeline, phase breakdown ===")
	fmt.Fprintln(w, "(the connection's span against the failure/detect/takeover marks,")
	fmt.Fprintln(w, " E14's model at a fleet of one; medians over the crash runs)")
	fmt.Fprintf(w, "%-24s %14s\n", "phase", "median")
	fmt.Fprintf(w, "%-24s %14v\n", "detection", r.DetectionMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "takeover + ARP announce", r.AnnounceMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "redirection to client", r.ResumeMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "recovery", r.RecoveryMedian)
	fmt.Fprintf(w, "%-24s %14v (max %v, n=%d)\n", "total", r.TotalMedian, r.TotalMax, r.N)
	s := r.Sample
	fmt.Fprintf(w, "sample run 0: anchor %.9fs; %v = %v + %v + %v + %v\n",
		s.Anchor.Seconds(), s.Total, s.Detection, s.Announce, s.Resume, s.Recovery)
	fmt.Fprintln(w)
}

// CollectMetrics runs one instrumented failover scenario (fixed seed,
// primary crashed mid-stream) and returns its metrics registry — the
// workload behind failover-bench -metrics-out. The snapshot is a function
// of the seed only.
func CollectMetrics() (*obs.Registry, error) {
	const total = 256 * 1024
	r, err := newCrashRun(424242, total, nil)
	if err == nil {
		err = r.run("collect-metrics", total/2, nil)
	}
	if err != nil {
		return nil, err
	}
	return r.sc.Obs, nil
}
