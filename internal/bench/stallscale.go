package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover/internal/metrics"
	"tcpfailover/internal/obs"
)

// --- E14: fleet-scale stall attribution ------------------------------------------
//
// E7 decomposes the client-visible failover stall (detection, ARP announce,
// resume, recovery) for each crash run's one connection. E14 asks the
// question at fleet scale: when the primary crashes mid-window under
// open-loop web traffic at 1k/10k/100k connections, what stall does EACH
// connection see, and where does its time go? Every connection's stall is
// computed from its recorded lifecycle span (internal/obs.SpanRecorder) and
// attributed per phase against the fleet failure/detect/takeover marks;
// the exact p50/p99/p999/max of each phase and of the total land in
// BENCH_trajectory.json. Each testbed cell is an independent simulation
// (tcpfailover.NewCells) and the cells run on the bench worker pool, so
// every value is a function of the seeds only — byte-identical for any
// bench worker count.

// DefaultStallScale is the connection-count axis of E14: the approximate
// number of sessions arriving during the measurement window, spread over
// enough testbed cells to stay below per-cell LAN saturation.
var DefaultStallScale = []int{1000, 10000, 100000}

// DefaultStallWindow is E14's per-point measurement window of virtual time.
const DefaultStallWindow = 8 * time.Second

// stallWarmup and stallDrain bracket the window like E12: arrivals run
// unmeasured for the warmup, and in-flight work gets the drain to recover
// after the crash before the point is scored.
const (
	stallWarmup = time.Second
	stallDrain  = 2 * time.Second
)

// stallCells maps a connection count to a cell count: one cell per 1000
// connections, clamped to [2, 64] (two cells at the smallest point; 64 is
// the address plan's ceiling). The per-cell load stays well under the
// ~270 sessions/s LAN saturation of the web workload.
func stallCells(conns int) int {
	c := conns / 1000
	if c < 2 {
		c = 2
	}
	if c > 64 {
		c = 64
	}
	return c
}

// StallPhaseStats are the nearest-rank percentiles of one stall phase
// across the fleet (completed stalls only).
type StallPhaseStats struct {
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
}

func stallStats(d *metrics.Durations) StallPhaseStats {
	return StallPhaseStats{
		P50:  d.Percentile(50),
		P99:  d.Percentile(99),
		P999: d.Percentile(99.9),
		Max:  d.Percentile(100),
	}
}

// StallScalePoint is one connection-count point of E14.
type StallScalePoint struct {
	Conns       int           `json:"conns"`
	Cells       int           `json:"cells"`
	Workload    string        `json:"workload"`
	LoadPerCell float64       `json:"sessions_per_sec_per_cell"`
	Window      time.Duration `json:"window_ns"`

	// Spans is the number of connection spans recorded across the fleet;
	// Stalled is how many of them completed a measurable failover stall
	// (recovered after the crash with a pre-takeover anchor).
	Spans   int64 `json:"spans"`
	Stalled int64 `json:"stalled"`

	// SpanDigest folds every cell's span-recorder digest (in cell order)
	// into one fleet hash — the determinism gate compares it across worker
	// counts.
	SpanDigest string `json:"span_digest"`

	Total     StallPhaseStats `json:"total"`
	PreCrash  StallPhaseStats `json:"precrash"`
	Detection StallPhaseStats `json:"detection"`
	Announce  StallPhaseStats `json:"announce"`
	Resume    StallPhaseStats `json:"resume"`
	Recovery  StallPhaseStats `json:"recovery"`
}

// StallScale runs E14: for each connection count, a fleet of testbed cells
// under open-loop web traffic whose every cell crashes its primary
// mid-window (a correlated fleet failure), scored from the span recorders.
func StallScale(conns []int) ([]StallScalePoint, error) {
	out := make([]StallScalePoint, len(conns))
	for i, n := range conns {
		p, err := runStallScale(i, n, DefaultStallWindow)
		if err != nil {
			return nil, fmt.Errorf("stallscale %d conns: %w", n, err)
		}
		out[i] = p
	}
	return out, nil
}

// runStallScale executes one E14 point.
func runStallScale(idx, conns int, window time.Duration) (StallScalePoint, error) {
	cells := stallCells(conns)
	load := float64(conns) / (float64(cells) * window.Seconds())
	fleet, err := webCrashFleet(int64(14000+100*idx), cells, load, stallWarmup, window)
	if err != nil {
		return StallScalePoint{}, err
	}
	if err := runFleet(fleet, stallWarmup+window+stallDrain); err != nil {
		return StallScalePoint{}, err
	}

	p := StallScalePoint{
		Conns:       conns,
		Cells:       cells,
		Workload:    webWorkload,
		LoadPerCell: load,
		Window:      window,
	}
	var total, precrash, detection, announce, resume, recovery metrics.Durations
	digests := make([]uint64, 0, cells)
	for _, sc := range fleet {
		rec := sc.Spans
		digests = append(digests, rec.Digest())
		for _, sp := range rec.Spans() {
			p.Spans++
			st, ok := rec.Stall(&sp)
			if !ok {
				continue
			}
			p.Stalled++
			total.Add(st.Total)
			precrash.Add(st.PreCrash)
			detection.Add(st.Detection)
			announce.Add(st.Announce)
			resume.Add(st.Resume)
			recovery.Add(st.Recovery)
		}
	}
	p.SpanDigest = fmt.Sprintf("%016x", obs.MergeSpanDigests(digests))
	p.Total = stallStats(&total)
	p.PreCrash = stallStats(&precrash)
	p.Detection = stallStats(&detection)
	p.Announce = stallStats(&announce)
	p.Resume = stallStats(&resume)
	p.Recovery = stallStats(&recovery)
	return p, nil
}

func renderStallScale(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E14 (extension): fleet-scale stall attribution ===")
	fmt.Fprintln(w, "(open-loop web sessions across testbed cells; every cell's primary")
	fmt.Fprintln(w, " crashes mid-window; each connection's client-visible stall is read")
	fmt.Fprintln(w, " from its lifecycle span and attributed per phase against the fleet")
	fmt.Fprintln(w, " failure/detect/takeover marks; exact nearest-rank percentiles;")
	fmt.Fprintln(w, " byte-identical for any worker count)")
	for _, p := range r.StallScale {
		fmt.Fprintf(w, "conns %d (cells %d, %.1f sessions/s/cell, %v window): %d spans, %d stalled, digest %s\n",
			p.Conns, p.Cells, p.LoadPerCell, p.Window, p.Spans, p.Stalled, p.SpanDigest)
		fmt.Fprintf(w, "  %-10s %12s %12s %12s %12s\n", "phase", "p50", "p99", "p99.9", "max")
		for _, row := range []struct {
			name string
			st   StallPhaseStats
		}{
			{"total", p.Total}, {"precrash", p.PreCrash}, {"detection", p.Detection},
			{"announce", p.Announce}, {"resume", p.Resume}, {"recovery", p.Recovery},
		} {
			fmt.Fprintf(w, "  %-10s %12v %12v %12v %12v\n", row.name,
				row.st.P50.Round(time.Microsecond), row.st.P99.Round(time.Microsecond),
				row.st.P999.Round(time.Microsecond), row.st.Max.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w)
}
