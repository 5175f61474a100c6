// Package loadgen is a deterministic open-loop load generator driven by the
// simulation scheduler. Sessions arrive on a schedule drawn from an arrival
// process — they do not wait for earlier sessions to finish — so offered
// load is independent of service quality and a crashed primary faces the
// same client pressure a production frontend would: arrivals keep coming
// during the outage and the backlog is visible as client-side latency, not
// as a politely throttled request rate.
//
// Determinism: all randomness flows from one splittable fault.Rand. The
// arrival schedule is drawn from a private child stream, and every session
// pre-draws its whole shape (bulk or keep-alive, request count, all sizes)
// from its own child stream at the arrival instant. No random draw ever
// happens inside a completion or timer callback, so the draw sequence is a
// pure function of the seed — byte-identical across bench worker counts and
// shard partitions.
package loadgen

import (
	"time"

	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Config wires a Generator to one client stack and one service address.
type Config struct {
	Sched *sim.Scheduler
	Stack *tcp.Stack
	Addr  ipv4.Addr
	Port  uint16

	// Spec is the workload (arrival process + session mix), usually from Zoo.
	Spec Spec

	// Rand seeds all generator randomness; the Generator splits private
	// child streams and never draws from it directly after construction.
	Rand *fault.Rand

	// Stop: no new sessions arrive at or after this instant. In-flight
	// sessions run to completion (or death).
	Stop time.Duration

	// MeasureFrom: only requests issued at or after this instant count in
	// Stats (warmup exclusion). Zero measures everything.
	MeasureFrom time.Duration
}

// Stats is the client-visible outcome of a run. Counters cover measured
// requests only (issued in [MeasureFrom, Stop) windows); Arrivals and
// DialErrors cover the whole run.
type Stats struct {
	// Arrivals counts sessions the arrival process produced.
	Arrivals int64
	// DialErrors counts sessions that failed at Dial (ephemeral-port
	// exhaustion under churn) — an SLO failure, not a harness error.
	DialErrors int64

	// Requests counts measured requests issued; Completed, those whose last
	// body byte arrived with every body byte verified; Failed, those whose
	// connection died first or whose body failed verification.
	Requests  int64
	Completed int64
	Failed    int64

	// BytesIn counts verified body bytes delivered for measured requests.
	BytesIn int64

	// Lat holds client-visible request latency (issue instant to last body
	// byte). A session's first request is issued at the arrival instant, so
	// its latency includes connection setup — and, during failover, the
	// whole takeover stall.
	Lat metrics.Durations
}

// Outstanding reports measured requests still in flight (issued, neither
// completed nor failed) — sessions truncated by the run horizon.
func (s *Stats) Outstanding() int64 { return s.Requests - s.Completed - s.Failed }

// Generator churns open-loop sessions against one service address.
type Generator struct {
	cfg   Config
	arrR  *fault.Rand // arrival schedule draws
	sessR *fault.Rand // per-session child-stream derivation

	Stats Stats
}

// New builds a Generator; call Start to schedule the first arrival.
func New(cfg Config) *Generator {
	return &Generator{
		cfg:   cfg,
		arrR:  cfg.Rand.Split("loadgen.arrivals"),
		sessR: cfg.Rand.Split("loadgen.sessions"),
	}
}

// Start schedules the arrival process beginning strictly after at.
func (g *Generator) Start(at time.Duration) {
	g.scheduleNext(at)
}

func (g *Generator) scheduleNext(now time.Duration) {
	next := g.cfg.Spec.Arrivals.Next(now, g.arrR)
	if next >= g.cfg.Stop {
		return
	}
	g.cfg.Sched.At(next, "loadgen.arrival", func() {
		g.Stats.Arrivals++
		g.launch()
		g.scheduleNext(next)
	})
}

// session is one pre-drawn keep-alive (or bulk) session in flight.
type session struct {
	g     *Generator
	cl    *apps.HTTPClient
	sizes []int64
	next  int // index of the next request to issue

	issuedAt time.Duration
	measured bool
	inFlight bool
	dead     bool
}

// launch pre-draws the session's whole shape, dials, and issues the first
// request immediately (it rides the handshake).
func (g *Generator) launch() {
	sr := g.sessR.Split("session")
	sp := g.cfg.Spec.Session
	var sizes []int64
	if sp.BulkProb > 0 && sr.Float64() < sp.BulkProb {
		sizes = []int64{sp.BulkSizes.Sample(sr)}
	} else {
		n := sp.Requests.Sample(sr)
		sizes = make([]int64, n)
		for i := range sizes {
			sizes[i] = sp.Sizes.Sample(sr)
		}
	}

	now := g.cfg.Sched.Now()
	measured := now >= g.cfg.MeasureFrom
	cl, err := apps.NewHTTPClient(g.cfg.Stack, g.cfg.Sched, g.cfg.Addr, g.cfg.Port)
	if err != nil {
		g.Stats.DialErrors++
		if measured {
			// The whole planned session is refused service.
			g.Stats.Requests += int64(len(sizes))
			g.Stats.Failed += int64(len(sizes))
		}
		return
	}

	s := &session{g: g, cl: cl, sizes: sizes}
	cl.OnClosed = s.onClosed
	s.issue()
}

// issue sends request s.next and schedules the think-gapped follow-up on
// completion.
func (s *session) issue() {
	g := s.g
	i := s.next
	s.next++
	s.issuedAt = g.cfg.Sched.Now()
	s.measured = s.issuedAt >= g.cfg.MeasureFrom
	s.inFlight = true
	if s.measured {
		g.Stats.Requests++
	}
	size := s.sizes[i]
	last := s.next == len(s.sizes)
	s.cl.Get(size, last, func() {
		s.inFlight = false
		if s.measured && s.cl.BadBody {
			// Delivered, but not the bytes the server was asked for.
			g.Stats.Failed++
		} else if s.measured {
			g.Stats.Completed++
			g.Stats.BytesIn += size
			g.Stats.Lat.Add(g.cfg.Sched.Now() - s.issuedAt)
		}
		if last || s.dead {
			return
		}
		think := g.cfg.Spec.Session.Think
		g.cfg.Sched.After(think, "loadgen.think", func() {
			if !s.dead {
				s.issue()
			}
		})
	})
}

// onClosed accounts a request that dies on the wire. A clean server close
// after the last response also lands here; only an in-flight request is a
// failure.
func (s *session) onClosed(error) {
	s.dead = true
	if s.inFlight {
		s.inFlight = false
		if s.measured {
			s.g.Stats.Failed++
		}
	}
}
