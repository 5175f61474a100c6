package main

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// web-crash: the paper's promise under production-shaped load. Four testbed
// cells on one shard, apps.NewHTTPServer on every replica, open-loop
// sessions per cell drawn from loadgen.Zoo("web") (arrival process, requests
// per session, heavy-tailed sizes, think time), detectors on, every cell's
// primary crashed at the window midpoint, then a drain until no request is
// outstanding. Connection churn, detect, replica takeover, arp announce,
// RTO recovery and the 32 KB per-connection apps buffers do their work here
// and nowhere else.
//
// One window is a whole scenario — build, warm up, measure, crash, drain —
// and it is short: every window is one crash event per cell, and the run
// pools many of them so that the requests a crash stalls are a few per cent
// of the pooled requests and the failover stall sits inside
// virt_request_ms_p99. The run rebuilds the scenario with a fresh sub-seed
// for as long as its wall-clock budget lasts. One slice is one whole window,
// warm-up included: the warm-up is open-loop traffic drawn from the seed like
// the window's, so its cost moves with the draw (17–165 ms across sub-seeds),
// and counted as set-up it made setup_s a measure of the draw. Set-up is the
// part that is the same for every sub-seed: build, install, start, arm.
//
// The sessions are driven from this file, not by loadgen.Generator, for two
// reasons the generator cannot serve: every body byte is checked
// (apps.HTTPClient.BadBody, which the generator drops), and latencies are
// kept exact instead of log-bucketed (1/32 buckets put a 3 % step into p50).
// The generator's draw discipline is kept: arrivals and session shapes come
// from split child streams and nothing is drawn in a completion callback.
// webStep is how often the drain condition is polled, and the parent span of
// a traced run.
const webStep = 100 * time.Millisecond

// noteStalled counts the window's requests slower than webStallFloor.
const noteStalled = "web.stalled_requests"

// Zoo("web") tails are clamped further for the benchmark: with Pareto
// alpha 1.3–1.5 a single 1–2 MB draw moves a window's byte total by
// several per cent, which is input noise, not a property of the system.
const (
	webMaxBody = 256 << 10
	webMaxBulk = 512 << 10
)

// A request slower than webStallFloor was stalled by the crash: the largest
// undisturbed transfer (512 KiB at the failover path's ≈ 3 MB/s) takes
// ≈ 170 ms, the shortest recovery is the detector's 50 ms plus one 200 ms
// minimum RTO. The stalled share of the pooled requests must stay inside
// [webStalledMin, webStalledMax] per cent, or the failover stall has left
// virt_request_ms_p99 (below) or become the whole workload (above).
const (
	webStallFloor = 300 * time.Millisecond
	webStalledMin = 1.5
	webStalledMax = 6.0
)

type webCrash struct {
	t  tier
	tr *tracer

	ss    *tcpfailover.ShardedScenario
	gens  []*webGen
	stop  time.Duration // arrivals end
	limit time.Duration // drain cap
	seg0  int64
	ev0   int64
	res   windowResult
}

// webGen is one cell's open-loop session source.
type webGen struct {
	sched *sim.Scheduler
	stack *tcp.Stack
	addr  ipv4.Addr
	spec  loadgen.Spec
	arrR  *fault.Rand // arrival schedule draws
	sessR *fault.Rand // per-session child streams
	stop  time.Duration
	from  time.Duration // requests issued before this are warm-up

	arrivals, dialErrors        int64
	requests, completed, failed int64
	bytesIn, lateness           int64
	lat                         []int64
}

func (g *webGen) outstanding() int64 { return g.requests - g.completed - g.failed }

func (g *webGen) scheduleNext(now time.Duration) {
	next := g.spec.Arrivals.Next(now, g.arrR)
	if next >= g.stop {
		return
	}
	g.sched.At(next, "web.arrival", func() {
		g.arrivals++
		// The generator runs on the virtual clock, so an arrival is never
		// late; the counter proves it rather than assuming it.
		g.lateness = max(g.lateness, int64(g.sched.Now()-next))
		g.launch()
		g.scheduleNext(next)
	})
}

// webSession is one pre-drawn keep-alive (or bulk) session in flight.
type webSession struct {
	g        *webGen
	cl       *apps.HTTPClient
	sizes    []int64
	next     int
	issuedAt time.Duration
	measured bool
	inFlight bool
	dead     bool
}

// launch pre-draws the session's whole shape, dials, and issues the first
// request at once: it rides the handshake, so its latency runs from the
// scheduled arrival instant and includes connection set-up — and, behind a
// crashed primary, the whole takeover stall.
func (g *webGen) launch() {
	sr := g.sessR.Split("session")
	sp := g.spec.Session
	var sizes []int64
	if sp.BulkProb > 0 && sr.Float64() < sp.BulkProb {
		sizes = []int64{sp.BulkSizes.Sample(sr)}
	} else {
		sizes = make([]int64, sp.Requests.Sample(sr))
		for i := range sizes {
			sizes[i] = sp.Sizes.Sample(sr)
		}
	}
	cl, err := apps.NewHTTPClient(g.stack, g.sched, g.addr, servicePort)
	if err != nil {
		g.dialErrors++
		if g.sched.Now() >= g.from {
			g.requests += int64(len(sizes))
			g.failed += int64(len(sizes))
		}
		return
	}
	s := &webSession{g: g, cl: cl, sizes: sizes}
	cl.OnClosed = s.onClosed
	s.issue()
}

func (s *webSession) issue() {
	g := s.g
	size := s.sizes[s.next]
	s.next++
	last := s.next == len(s.sizes)
	s.issuedAt = g.sched.Now()
	s.measured = s.issuedAt >= g.from
	s.inFlight = true
	if s.measured {
		g.requests++
	}
	s.cl.Get(size, last, func() {
		s.inFlight = false
		if s.measured {
			if s.cl.BadBody {
				g.failed++
			} else {
				g.completed++
				g.bytesIn += size
				g.lat = append(g.lat, int64(g.sched.Now()-s.issuedAt))
			}
		}
		if last || s.dead {
			return
		}
		g.sched.After(g.spec.Session.Think, "web.think", func() {
			if !s.dead {
				s.issue()
			}
		})
	})
}

// onClosed accounts a request that dies on the wire; a clean server close
// after the last response also lands here and is not a failure.
func (s *webSession) onClosed(error) {
	s.dead = true
	if s.inFlight {
		s.inFlight = false
		if s.measured {
			s.g.failed++
		}
	}
}

// refMix: mostly pattern fill for the bodies, churned connection state for
// the rest.
func (w *webCrash) refMix() float64 { return 0.8 }

func (w *webCrash) rebuilds() bool { return true }
func (w *webCrash) pooled() int    { return w.t.webReps }

func (w *webCrash) setup(seed int64, rep int, mode runMode, tr *tracer) error {
	t := w.t
	w.stop = t.webWarm + t.webWindow
	w.limit = w.stop + t.webDrain
	cell := tcpfailover.LANOptions()
	cell.Seed = mixSeed(seed, rep)
	cell.ServerPorts = []uint16{servicePort}
	cell.Spans = mode.traced
	cell.Unreplicated = mode.unreplicated
	if !mode.unreplicated {
		cell.Faults = &fault.Plan{
			Schedule: []fault.Step{{At: t.webWarm + t.webWindow/2, Op: fault.OpCrashPrimary}},
		}
	}
	shards := max(mode.shards, 1)
	ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
		Cells:     t.webCells,
		Shards:    shards,
		Workers:   shards,
		Cell:      cell,
		CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
		Digest:    mode.traced,
	})
	if err != nil {
		return err
	}
	spec, err := loadgen.Zoo("web", t.webRate)
	if err != nil {
		return err
	}
	spec.Session.Sizes = loadgen.Clamp{S: spec.Session.Sizes, Min: 64, Max: webMaxBody}
	spec.Session.BulkSizes = loadgen.Clamp{S: spec.Session.BulkSizes, Min: 128 << 10, Max: webMaxBulk}
	w.ss, w.tr, w.gens = ss, tr, w.gens[:0]
	for _, c := range ss.Cells {
		c.Stream.Use()
		if err := installOnServers(c.Scenario, func(h *netstack.Host) error {
			_, err := apps.NewHTTPServer(h.TCP(), servicePort)
			return err
		}); err != nil {
			return fmt.Errorf("cell %d install: %w", c.Index, err)
		}
		if tr != nil && c.Group != nil {
			tr.wrapGroup(c.Group)
		}
	}
	ss.Start()
	for _, c := range ss.Cells {
		c.Stream.Use()
		rnd := fault.NewRand(uint64(cell.Seed) + uint64(c.Index))
		g := &webGen{
			sched: c.Sched, stack: c.Client.TCP(), addr: c.ServiceAddr(), spec: spec,
			arrR: rnd.Split("loadgen.arrivals"), sessR: rnd.Split("loadgen.sessions"),
			stop: w.stop, from: t.webWarm,
		}
		g.scheduleNext(0)
		w.gens = append(w.gens, g)
	}
	w.seg0, w.ev0 = w.segments(), w.events()
	return nil
}

func (w *webCrash) outstanding() int64 {
	var n int64
	for _, g := range w.gens {
		n += g.outstanding()
	}
	return n
}

// slice runs the whole window: warm-up, the measured second with the crash
// at its midpoint, and the drain. It advances in 100 ms steps of virtual time
// so that traced and untraced runs stop at the same instant; on traced runs
// each step is a parent span (the shard group owns the event loop, so steps
// cannot be wrapped event by event as the single-scenario workloads do).
func (w *webCrash) slice() (bool, error) {
	for {
		next := w.ss.Now() + webStep
		if w.tr != nil {
			w.tr.begin(kindStep, 0)
		}
		err := w.ss.RunUntil(next)
		if w.tr != nil {
			w.tr.end()
			if w.tr.every != nil {
				w.tr.every()
			}
		}
		if err != nil {
			return false, err
		}
		if next >= w.stop && (w.outstanding() == 0 || next >= w.limit) {
			break
		}
	}
	r := windowResult{
		virt:     w.t.webWindow,
		segments: w.segments() - w.seg0,
		events:   w.events() - w.ev0,
		notes:    map[string]float64{},
	}
	for _, g := range w.gens {
		r.attempted += g.requests
		r.failed += g.failed + g.outstanding()
		r.payload += g.bytesIn
		r.lat = append(r.lat, g.lat...)
		for _, l := range g.lat {
			if l >= int64(webStallFloor) {
				r.notes[noteStalled]++
			}
		}
		r.notes["loadgen.arrivals"] += float64(g.arrivals)
		r.notes["loadgen.dial_errors"] += float64(g.dialErrors)
		r.notes["loadgen.outstanding_at_horizon"] += float64(g.outstanding())
		r.notes["loadgen.lateness_ms_max"] = max(r.notes["loadgen.lateness_ms_max"], float64(g.lateness)/1e6)
	}
	r.digest = digestOf(w.ss.Digests())
	w.res = r
	return true, nil
}

func (w *webCrash) window() (windowResult, error) { return w.res, nil }

// quiesce stops the detectors and runs past every lingering timer
// (TIME-WAIT is 60 s; retransmissions toward the crashed primary give up
// within their backoff).
func (w *webCrash) quiesce() error {
	for _, c := range w.ss.Cells {
		if c.Group != nil {
			c.Group.Stop()
		}
	}
	return w.ss.RunUntil(w.ss.Now() + 5*time.Minute)
}

func (w *webCrash) segments() int64 {
	var n int64
	for _, c := range w.ss.Cells {
		n += segmentsOf(c.Scenario)
	}
	return n
}

func (w *webCrash) events() int64 { return int64(w.ss.Executed()) }

func (w *webCrash) cells() []*tcpfailover.Scenario {
	out := make([]*tcpfailover.Scenario, len(w.ss.Cells))
	for i, c := range w.ss.Cells {
		out[i] = c.Scenario
	}
	return out
}

func (w *webCrash) teardown() { w.ss, w.gens, w.tr = nil, nil, nil }
