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

// TimelineResult reports E9: the failover window decomposed into the
// phases of obs.Timeline, medians over N crash runs. Sample is run 0's
// full timeline; everything here is a function of the seeds only, so the
// marshalled result is byte-identical across runs — the determinism test
// pins that down.
type TimelineResult struct {
	N                   int           `json:"n"`
	DetectionMedian     time.Duration `json:"detection_median_ns"`
	AnnounceMedian      time.Duration `json:"announce_median_ns"`
	ResumeMedian        time.Duration `json:"resume_median_ns"`
	AckTurnaroundMedian time.Duration `json:"ack_turnaround_median_ns"`
	TotalMedian         time.Duration `json:"total_median_ns"`
	TotalMax            time.Duration `json:"total_max_ns"`
	Sample              obs.Timeline  `json:"sample"`
}

// FailoverTimeline crashes the primary mid-stream n times and reconstructs
// each failover's phase timeline from a flight recorder on the client plus
// the detector/takeover hooks. The router is given a non-zero ARP-table
// update delay so the redirection phase is visible in the breakdown.
func FailoverTimeline(n int) (TimelineResult, error) {
	const total = 512 * 1024
	timelines := make([]obs.Timeline, n)
	err := parallelEach(n, func(i int) error {
		r, err := newCrashRun(int64(9000+i), total, func(o *tcpfailover.Options) {
			o.RouterARPDelay = 500 * time.Microsecond
		})
		if err != nil {
			return err
		}
		sc := r.sc
		// The timeline only needs the tail of the capture (takeover onward),
		// so a modest ring that wraps during the bulk transfer is fine.
		rec := obs.NewRecorder(4096, 64)
		sc.Client.AttachRecorder(rec)
		var marks obs.Marks
		sc.Group.OnPrimaryFailureDetected = func() { marks.DetectorFired = sc.Now() }
		sc.Group.SecondaryBridge().OnTakeover = func() { marks.TakeoverDone = sc.Now() }
		if err := r.dial(); err != nil {
			return err
		}
		crashAt := int64(total/4) + int64(i)*int64(total/(2*n))
		if err := r.run(fmt.Sprintf("run %d", i), crashAt, nil); err != nil {
			return err
		}
		marks.FailureInjected = r.crashedAt
		if r.recv.BadAt >= 0 || r.recv.Received != total {
			return fmt.Errorf("run %d: stream not intact (received=%d bad=%d)",
				i, r.recv.Received, r.recv.BadAt)
		}
		tl, err := obs.Analyze(rec.Records(), marks, sc.ServiceAddr())
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		timelines[i] = tl
		addEvents(sc)
		return nil
	})
	if err != nil {
		return TimelineResult{}, err
	}
	var detection, announce, resume, ack, totals metrics.Durations
	for _, tl := range timelines {
		detection.Add(tl.Detection())
		announce.Add(tl.Announce())
		resume.Add(tl.Resume())
		ack.Add(tl.AckTurnaround())
		totals.Add(tl.Total())
	}
	return TimelineResult{
		N:                   n,
		DetectionMedian:     detection.Median(),
		AnnounceMedian:      announce.Median(),
		ResumeMedian:        resume.Median(),
		AckTurnaroundMedian: ack.Median(),
		TotalMedian:         totals.Median(),
		TotalMax:            totals.Max(),
		Sample:              timelines[0],
	}, nil
}

func renderTimeline(w io.Writer, _ Config, res *Results) {
	r := res.Timeline
	if r == nil {
		return
	}
	fmt.Fprintln(w, "=== E9 (extension): failover timeline, phase breakdown ===")
	fmt.Fprintln(w, "(reconstructed from a client-side flight recorder plus the")
	fmt.Fprintln(w, " detector/takeover hooks; medians over the crash runs)")
	fmt.Fprintf(w, "%-24s %14s\n", "phase", "median")
	fmt.Fprintf(w, "%-24s %14v\n", "detection", r.DetectionMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "takeover + ARP announce", r.AnnounceMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "redirection to client", r.ResumeMedian)
	fmt.Fprintf(w, "%-24s %14v\n", "client ack turnaround", r.AckTurnaroundMedian)
	fmt.Fprintf(w, "%-24s %14v (max %v, n=%d)\n", "total", r.TotalMedian, r.TotalMax, r.N)
	fmt.Fprintln(w, "sample run 0:")
	_ = r.Sample.WriteText(w) // as unchecked as the Fprints around it
	fmt.Fprintln(w)
}

// CollectMetrics runs one instrumented failover scenario (fixed seed,
// primary crashed mid-stream) and returns its metrics registry — the
// workload behind failover-bench -metrics-out. The snapshot is a function
// of the seed only.
func CollectMetrics() (*obs.Registry, error) {
	const total = 256 * 1024
	r, err := newCrashRun(424242, total, nil)
	if err != nil {
		return nil, err
	}
	if err := r.dial(); err != nil {
		return nil, err
	}
	if err := r.run("collect-metrics", total/2, nil); err != nil {
		return nil, err
	}
	return r.sc.Obs, nil
}
