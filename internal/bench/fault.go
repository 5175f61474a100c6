package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/metrics"
)

// --- E7 (extension): failover latency under link impairment ---------------------

// DefaultFaultRates is the loss-rate axis of the fault sweep.
var DefaultFaultRates = []float64{0, 0.005, 0.01, 0.02, 0.05}

// faultSweepModels are the loss channels the sweep exercises per rate:
// independent (Bernoulli) and bursty (Gilbert–Elliott) loss.
var faultSweepModels = []string{"bernoulli", "bursty"}

// FaultPoint is one (loss model, loss rate) cell of the fault sweep.
type FaultPoint struct {
	Model       string        `json:"model"`
	Rate        float64       `json:"rate"`
	N           int           `json:"n"`
	StallMedian time.Duration `json:"stall_median_ns"`
	StallMax    time.Duration `json:"stall_max_ns"`
	RecvKBps    float64       `json:"recv_kbps"` // median across runs
	AllIntact   bool          `json:"all_intact"`
	Injected    int64         `json:"faults_injected"` // frames dropped across runs
}

// FaultSweep crosses frame-loss rates with failover times: for every
// (model, rate) cell it runs a server-to-client stream through lossy links
// (both the server LAN and the client link), crashes the primary at a
// different point in each run via the failure schedule, and reports the
// client-observed post-crash stall and overall throughput. The zero-rate
// row reproduces E6 on a clean network; the rest show how loss stretches
// the recovery window (lost retransmissions push the client into
// exponential RTO backoff on top of the detection timeout).
func FaultSweep(rates []float64, runs int) ([]FaultPoint, error) {
	const total = 1024 * 1024
	type cell struct {
		model string
		rate  float64
	}
	cells := make([]cell, 0, len(faultSweepModels)*len(rates))
	for _, m := range faultSweepModels {
		for _, r := range rates {
			cells = append(cells, cell{m, r})
		}
	}

	type runOut struct {
		stall    time.Duration
		kbps     float64
		intact   bool
		injected int64
	}
	outs := make([]runOut, len(cells)*runs)
	err := parallelEach(len(outs), func(j int) error {
		c, run := cells[j/runs], j%runs

		// Loss on every transmission of both links; the same rate hits data,
		// ACKs, replication traffic, and heartbeats alike.
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
		// The failover-time axis: spread the crash over the transfer.
		crashAt := 20*time.Millisecond +
			time.Duration(run)*60*time.Millisecond/time.Duration(runs)

		r, err := newCrashRun(int64(7000+j), total, func(o *tcpfailover.Options) {
			o.Faults = &fault.Plan{
				Impairments: imps,
				Schedule:    []fault.Step{{At: crashAt, Op: fault.OpCrashPrimary}},
			}
		})
		if err != nil {
			return err
		}
		sc, recv := r.sc, r.recv
		var established time.Duration
		r.conn.OnEstablished(func() { established = sc.Now() })
		// Severe loss can exhaust TCP's retransmission budget (MaxRetries)
		// and abort the connection; that is a legitimate outcome of the
		// harshest cells, recorded as a non-intact run rather than a bench
		// failure.
		died := false
		r.conn.OnClose(func(err error) {
			if err != nil {
				died = true
			}
		})

		// The stall is the run's longest post-crash gap between progress
		// events. A sender that exhausts its retransmission budget aborts
		// with a single RST; if loss eats that RST the receiving client
		// has nothing to retransmit and hangs silently, so a no-progress
		// window longer than the sender's entire backoff sequence
		// (~0.2 s doubling to the 60 s MaxRTO over MaxRetries ≈ 4.7
		// virtual minutes) also declares the run dead.
		const deadAfter = 10 * time.Minute
		what := fmt.Sprintf("%s rate %g run %d", c.model, c.rate, run)
		if err := r.run(what, 0, func() bool {
			return !died && sc.Now()-r.lastProgress <= deadAfter
		}); err != nil {
			return err
		}
		end := recv.EOFAt
		if !recv.EOF {
			// Connection died mid-stream: the rate runs to the last byte
			// that arrived. The terminal silence is not a stall (nothing
			// recovered), it is the run's non-intact verdict.
			end = r.lastProgress
		}
		outs[j] = runOut{
			stall:    r.maxGap,
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
		var stalls metrics.Durations
		var kbps metrics.Floats
		p := FaultPoint{Model: c.model, Rate: c.rate, N: runs, AllIntact: true}
		for _, o := range outs[ci*runs : (ci+1)*runs] {
			stalls.Add(o.stall)
			kbps.Add(o.kbps)
			p.AllIntact = p.AllIntact && o.intact
			p.Injected += o.injected
		}
		p.StallMedian = stalls.Median()
		p.StallMax = stalls.Max()
		p.RecvKBps = kbps.Median()
		points = append(points, p)
	}
	return points, nil
}

func renderFaultSweep(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E7 (extension): failover latency under link impairment ===")
	fmt.Fprintln(w, "(1 MB server-to-client stream over lossy links, primary crashed")
	fmt.Fprintln(w, " mid-stream by the failure schedule; stall = longest post-crash")
	fmt.Fprintln(w, " gap in the client's received-byte timeline)")
	fmt.Fprintf(w, "%12s %8s %14s %14s %12s %8s %8s\n",
		"loss model", "rate", "stall med", "stall max", "rate [KB/s]", "intact", "drops")
	for _, p := range r.FaultSweep {
		fmt.Fprintf(w, "%12s %8.3f %14v %14v %12.2f %8v %8d\n",
			p.Model, p.Rate, p.StallMedian, p.StallMax, p.RecvKBps, p.AllIntact, p.Injected)
	}
	fmt.Fprintln(w)
}
