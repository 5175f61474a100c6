package main

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// servicePort is the replicated service port every workload uses.
const servicePort = 9000

// virtDeadline bounds any single wait in virtual time; reaching it is a
// failed run, never a measurement.
const virtDeadline = 24 * time.Hour

// A workload is one set of inputs. Its measured phase is a sequence of
// slices of fixed work; the first `window` of that work is the part whose
// virtual-time results are reported, so those results are a function of the
// seed alone no matter how many further slices the wall-clock budget allows.
type workload interface {
	// setup builds the scenario, installs the applications, dials and
	// warms up: everything a user pays before the first measured request.
	// rep distinguishes rebuilt repetitions of one run (web-crash); tr is
	// nil on untraced runs.
	setup(seed int64, rep int, mode runMode, tr *tracer) error
	// slice advances the measured phase by one quantum of fixed work and
	// reports whether that completed the fixed window.
	slice() (windowDone bool, err error)
	// window returns the results of the window that just completed.
	window() (windowResult, error)
	// rebuilds reports whether the scenario ends with its window (true:
	// the runner sets up again for more work; false: slices continue).
	// Workloads whose cost per slice drifts as state accumulates rebuild, so
	// that every window repeats the same drift.
	rebuilds() bool
	// pooled is how many windows make up the run's virtual results.
	pooled() int
	// refMix is the share of the reference kernel's compute half in the
	// blend this workload's host times are normalised by (see slowdown).
	// Calibrated once on this box so that batches of ten runs taken in
	// different regimes of the box agree in level, and each spreads least;
	// then frozen with the kernel.
	refMix() float64
	// segments and events are cumulative since setup began.
	segments() int64
	events() int64
	// cells exposes the live scenarios for counter snapshots.
	cells() []*tcpfailover.Scenario
	// quiesce stops the load and runs the event loop until nothing is in
	// flight (traced runs check the buffer pool there).
	quiesce() error
	// teardown drops the scenario so the next setup starts from an empty
	// heap.
	teardown()
}

// runMode selects what a set-up switches on beyond the untraced defaults.
type runMode struct {
	traced       bool // spans, digests, seam wrappers
	unreplicated bool // the Options.Unreplicated twin (core.virt_overhead_ratio)
	shards       int  // web-crash only; 0 means 1
}

// windowResult is what one fixed window of work produced.
type windowResult struct {
	attempted int64
	failed    int64
	payload   int64         // verified application payload bytes delivered
	virt      time.Duration // virtual time the window spanned
	lat       []int64       // request latencies, ns, unsorted

	segments int64
	events   int64
	digest   uint64 // folded stream digests; traced runs only
	notes    map[string]float64
}

// tier sizes every workload; quick keeps the shape at a fraction of the
// work and its numbers are never comparable with full runs.
type tier struct {
	quick  bool
	setups int // set-ups timed per run

	streamBytes    int64 // payload per stream request
	streamPerSlice int   // requests per slice
	streamWindow   int   // requests pooled into the virtual results
	sendReps       int   // stream-send spreads them over this many rebuilt windows
	streamWarm     int   // warm-up requests inside setup

	conns          int // conn-scale connections; one slice is one round each
	connWindow     int // slices in the fixed window
	connWarmRounds int

	webCells  int
	webRate   float64 // sessions/s per cell
	webWarm   time.Duration
	webWindow time.Duration
	webDrain  time.Duration // cap on the post-window drain
	webReps   int           // repetitions pooled into the fixed window
}

var fullTier = tier{
	setups:      5,
	streamBytes: 128 << 10, streamPerSlice: 32, streamWindow: 1024, sendReps: 4, streamWarm: 2,
	conns: 10000, connWindow: 20, connWarmRounds: 4,
	webCells: 4, webRate: 30, webWarm: 300 * time.Millisecond, webWindow: time.Second, webDrain: 10 * time.Second, webReps: 32,
}

var quickTier = tier{
	quick:       true,
	setups:      2,
	streamBytes: 64 << 10, streamPerSlice: 4, streamWindow: 32, sendReps: 2, streamWarm: 1,
	conns: 500, connWindow: 4, connWarmRounds: 2,
	webCells: 2, webRate: 30, webWarm: 300 * time.Millisecond, webWindow: time.Second, webDrain: 10 * time.Second, webReps: 2,
}

var workloadNames = []string{"stream-recv", "stream-send", "conn-scale", "web-crash"}

func newWorkload(name string, t tier) (workload, error) {
	switch name {
	case "stream-recv":
		return &streamWorkload{t: t, recv: true}, nil
	case "stream-send":
		return &streamWorkload{t: t}, nil
	case "conn-scale":
		return &connScale{t: t}, nil
	case "web-crash":
		return &webCrash{t: t}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v, all)", name, workloadNames)
}

// mixSeed derives a decorrelated simulation seed from the run seed and a
// stream number (splitmix64 finaliser).
func mixSeed(seed int64, stream int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// segmentsOf is the repo's definition of a segment: one Ethernet frame
// carried on either link of a cell (E8's definition).
func segmentsOf(sc *tcpfailover.Scenario) int64 {
	return sc.ServerLAN.Stats().Frames + sc.ClientLink.Stats().Frames
}

// installOnServers installs a deterministic application on every replica.
func installOnServers(sc *tcpfailover.Scenario, install func(h *netstack.Host) error) error {
	if sc.Group != nil {
		return sc.Group.OnEach(install)
	}
	return install(sc.Primary)
}

// single is the state shared by the three one-scenario workloads.
type single struct {
	sc *tcpfailover.Scenario
	tr *tracer
}

// build assembles one scenario for mode, with spans, digests and seam
// wrappers on traced runs.
func (s *single) build(opts tcpfailover.Options, mode runMode, tr *tracer) error {
	opts.Unreplicated = mode.unreplicated
	opts.Spans = mode.traced
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return err
	}
	if mode.traced {
		sc.Sched.EnableDigest()
	}
	if tr != nil && sc.Group != nil {
		tr.wrapGroup(sc.Group)
	}
	s.sc, s.tr = sc, tr
	return nil
}

// runUntil steps the scenario until cond holds, through the tracer's step
// loop on traced runs.
func (s *single) runUntil(cond func() bool) error {
	if s.tr != nil {
		return s.tr.runUntil(s.sc.Sched, cond, virtDeadline)
	}
	return s.sc.RunUntil(cond, virtDeadline)
}

// quiesce stops the detectors and drains the event queue. Idle connections
// hold no timers, so the queue empties once lingering ones expire.
func (s *single) quiesce() error {
	if s.sc.Group != nil {
		s.sc.Group.Stop()
	}
	return s.sc.RunUntil(func() bool { return s.sc.Sched.PendingEvents() == 0 }, virtDeadline)
}

func (s *single) segments() int64 { return segmentsOf(s.sc) }
func (s *single) events() int64   { return int64(s.sc.Sched.Executed()) }
func (s *single) cells() []*tcpfailover.Scenario {
	return []*tcpfailover.Scenario{s.sc}
}
func (s *single) teardown()      { s.sc, s.tr = nil, nil }
func (s *single) rebuilds() bool { return false }
func (s *single) pooled() int    { return 1 }

// FNV-1a, the fold the repo's own stream digests use.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestOf folds a scheduler's per-stream digests into one value.
func digestOf(ds []sim.StreamDigest) uint64 {
	h := uint64(fnvOffset)
	for _, d := range ds {
		h = (h ^ uint64(d.ID)) * fnvPrime
		h = (h ^ uint64(d.Executed)) * fnvPrime
		h = (h ^ d.Digest) * fnvPrime
	}
	return h
}
