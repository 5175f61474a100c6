package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/obs"
)

// --- E7 (extension): failover latency under link impairment ---------------------

// DefaultFaultRates is the loss-rate axis of the fault sweep.
var DefaultFaultRates = []float64{0, 0.005, 0.01, 0.02, 0.05}

// faultSweepModels are the loss channels the sweep exercises per rate:
// independent (Bernoulli) and bursty (Gilbert–Elliott) loss.
var faultSweepModels = []string{"bernoulli", "bursty"}

// FaultPoint is one (loss model, loss rate) cell of the fault sweep. The
// stall figures are over the N runs whose connection span records a
// completed stall (obs.SpanRecorder.Stall): a run whose connection was
// set up only after the takeover, or that never recovered, has none.
type FaultPoint struct {
	Model           string        `json:"model"` // "none" (the clean cell) or a faultSweepModels entry
	Rate            float64       `json:"rate"`
	N               int           `json:"n"`
	StallMedian     time.Duration `json:"stall_median_ns"`
	StallMax        time.Duration `json:"stall_max_ns"`
	DetectionMedian time.Duration `json:"detection_median_ns"`
	AnnounceMedian  time.Duration `json:"announce_median_ns"`
	ResumeMedian    time.Duration `json:"resume_median_ns"`
	RecoveryMedian  time.Duration `json:"recovery_median_ns"`
	RecvKBps        float64       `json:"recv_kbps"` // median across runs
	AllIntact       bool          `json:"all_intact"`
	Injected        int64         `json:"faults_injected"` // frames dropped across runs
}

// faultCell is one (model, rate) cell of the sweep and its place on the
// axes, which fixes its seeds.
type faultCell struct {
	model string
	rate  float64
	slot  int // mi·len(rates) + ri; the seeds are 7000 + slot·runs + run
}

// newFaultRun builds run run of runs in cell c: a 1 MB stream, span
// recording on, loss on every transmission of both links (the same rate
// hits data, ACKs, replication traffic and heartbeats alike), and the
// primary crashed by the failure schedule at the run's point on the
// failover-time axis, spread over the transfer.
func newFaultRun(c faultCell, run, runs int) (*crashRun, error) {
	var imps []fault.Impairment
	if c.rate > 0 {
		spec := fault.Bernoulli(c.rate)
		if c.model == "bursty" {
			spec = fault.BurstyLoss(c.rate)
		}
		imps = []fault.Impairment{
			{Link: fault.LinkServerLAN, Models: []fault.Spec{spec}},
			{Link: fault.LinkClientLink, Models: []fault.Spec{spec}},
		}
	}
	crashAt := 20*time.Millisecond + time.Duration(run)*60*time.Millisecond/time.Duration(runs)
	return newCrashRun(int64(7000+c.slot*runs+run), 1024*1024, func(o *tcpfailover.Options) {
		o.Spans = true
		o.Faults = &fault.Plan{
			Impairments: imps,
			Schedule:    []fault.Step{{At: crashAt, Op: fault.OpCrashPrimary}},
		}
	})
}

// FaultSweep crosses frame-loss rates with failover times: for every
// (model, rate) cell it runs a server-to-client stream through lossy links
// (both the server LAN and the client link), crashes the primary at a
// different point in each run via the failure schedule, and reports the
// client-visible failover stall, split by phase, and overall throughput.
// The first row, model "none", is the clean network, run once whatever the
// models; the rest show how loss stretches the recovery window (lost
// retransmissions push the client into exponential RTO backoff on top of
// the detection timeout). A cell's seeds follow its place on the (model,
// rate) axes; the clean row takes the first model's place at rates[0],
// which is 0.
func FaultSweep(rates []float64, runs int) ([]FaultPoint, error) {
	cells := []faultCell{{model: "none"}}
	for mi, m := range faultSweepModels {
		for ri, r := range rates {
			if r > 0 {
				cells = append(cells, faultCell{m, r, mi*len(rates) + ri})
			}
		}
	}

	type runOut struct {
		stall    obs.StallBreakdown
		stalled  bool
		kbps     float64
		intact   bool
		injected int64
	}
	outs := make([]runOut, len(cells)*runs)
	err := parallelEach(len(outs), func(j int) error {
		c, run := cells[j/runs], j%runs
		r, err := newFaultRun(c, run, runs)
		if err != nil {
			return err
		}
		sc, recv := r.sc, r.recv
		var established time.Duration
		r.conn.OnEstablished(func() { established = sc.Now() })
		// Severe loss can exhaust TCP's retransmission budget (12 timeouts)
		// and abort the connection; that is a legitimate outcome of the
		// harshest cells, recorded as a non-intact run rather than a bench
		// failure.
		died := false
		r.conn.OnClose(func(err error) {
			if err != nil {
				died = true
			}
		})

		// A sender that exhausts its retransmission budget aborts with a
		// single RST; if loss eats that RST the receiving client has
		// nothing to retransmit and hangs silently, so a no-progress window
		// longer than the sender's entire backoff sequence (~0.2 s doubling
		// to TCP's 60 s maximum RTO over 12 retransmissions ≈ 4.7 virtual
		// minutes) also declares the run dead.
		const deadAfter = 10 * time.Minute
		if err := sc.RunUntil(func() bool {
			return recv.EOF || died || sc.Now()-recv.LastAt > deadAfter
		}, time.Hour); err != nil {
			return fmt.Errorf("%s rate %g run %d: %w (received=%d)", c.model, c.rate, run, err, recv.Received)
		}
		end := recv.EOFAt
		if !recv.EOF {
			// Connection died mid-stream: the rate runs to the last byte
			// that arrived.
			end = recv.LastAt
		}
		st, stalled := r.stall()
		outs[j] = runOut{
			stall:    st,
			stalled:  stalled,
			kbps:     metrics.RateKBps(recv.Received, end-established),
			intact:   r.intact(),
			injected: sc.Faults.Stats().Dropped,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]FaultPoint, 0, len(cells))
	for ci, c := range cells {
		var totals, detection, announce, resume, recovery metrics.Durations
		var kbps metrics.Floats
		p := FaultPoint{Model: c.model, Rate: c.rate, AllIntact: true}
		for _, o := range outs[ci*runs : (ci+1)*runs] {
			if o.stalled {
				totals.Add(o.stall.Total)
				detection.Add(o.stall.Detection)
				announce.Add(o.stall.Announce)
				resume.Add(o.stall.Resume)
				recovery.Add(o.stall.Recovery)
			}
			kbps.Add(o.kbps)
			p.AllIntact = p.AllIntact && o.intact
			p.Injected += o.injected
		}
		p.N = totals.N()
		p.StallMedian = totals.Median()
		p.StallMax = totals.Max()
		p.DetectionMedian = detection.Median()
		p.AnnounceMedian = announce.Median()
		p.ResumeMedian = resume.Median()
		p.RecoveryMedian = recovery.Median()
		p.RecvKBps = kbps.Median()
		points = append(points, p)
	}
	return points, nil
}

func renderFaultSweep(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E7 (extension): failover latency under link impairment ===")
	fmt.Fprintln(w, "(1 MB server-to-client stream over lossy links, primary crashed")
	fmt.Fprintln(w, " mid-stream by the failure schedule; stall = the connection's span")
	fmt.Fprintln(w, " scored by SpanRecorder.Stall, from the last byte the primary served")
	fmt.Fprintln(w, " to the first delivered after the takeover; n = runs with a stall)")
	fmt.Fprintf(w, "%12s %8s %3s %14s %14s %12s %8s %8s\n",
		"loss model", "rate", "n", "stall med", "stall max", "rate [KB/s]", "intact", "drops")
	for _, p := range r.FaultSweep {
		fmt.Fprintf(w, "%12s %8.3f %3d %14v %14v %12.2f %8v %8d\n",
			p.Model, p.Rate, p.N, p.StallMedian, p.StallMax, p.RecvKBps, p.AllIntact, p.Injected)
	}
	fmt.Fprintln(w, "stall phases, medians over the same n runs:")
	fmt.Fprintf(w, "%12s %8s %14s %14s %14s %14s\n",
		"loss model", "rate", "detection", "announce", "resume", "recovery")
	for _, p := range r.FaultSweep {
		fmt.Fprintf(w, "%12s %8.3f %14v %14v %14v %14v\n",
			p.Model, p.Rate, p.DetectionMedian, p.AnnounceMedian, p.ResumeMedian, p.RecoveryMedian)
	}
	fmt.Fprintln(w)
}
