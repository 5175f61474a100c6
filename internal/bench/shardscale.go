package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// --- E10: sharded parallel scaling -------------------------------------------
//
// E10 measures what the sharded engine buys: events/sec per core as the
// shard count grows. The workload replicates the paper's testbed into eight
// cells joined by a trunk ring (tcpfailover.NewSharded), spreads the
// connection count across the cells — one client in eight dials the *next*
// cell's service, so every trunk carries real cross-domain TCP — and sweeps
// the shard count at a fixed connection count. Because the sharded engine is
// byte-identical for every shard count (the differential tests pin this),
// the executed event sequence is one fixed workload and events/sec is
// directly comparable across the sweep: speedup and parallel efficiency fall
// straight out of the ratios.
//
// It is the one experiment that reads the wall clock, on purpose: the
// benchmark under benchmark/ owns host time, and none of its workloads
// varies the shard count. The points run sequentially on an otherwise quiet
// process; the shard workers themselves are the parallelism being measured.
// On a single-core host every point degenerates to the sequential engine
// plus window bookkeeping — the sweep then measures lockstep overhead, not
// speedup, and EventsPerSecPerCore is the honest cross-host comparison.

// DefaultShardScale is the connection-count axis of experiment E10.
var DefaultShardScale = []int{100_000, 1_000_000}

// DefaultShardCounts is the shard-count axis of experiment E10.
var DefaultShardCounts = []int{1, 2, 4, 8}

const (
	// ssCells is the base number of replicated testbed cells (and hence the
	// maximum useful shard count). Eight keeps every shard count in the
	// default sweep an exact divisor: every domain holds the same number of
	// cells, so the load imbalance between domains is the workload's own,
	// not the partition's. The cell count doubles (staying a multiple of 8)
	// whenever the per-cell connection count would crowd the client's
	// ephemeral port space — see ssMaxConnsPerCell.
	ssCells = 8
	// ssMaxConnsPerCell caps connections per cell: each cell's client host
	// dials every connection from one address, and the ephemeral range is
	// 16384 ports (49152-65535). At 10^6 connections the cell count scales
	// to 64 (15625 conns/cell); past 64*16000 the client stacks genuinely
	// run out of ports and Dial reports it.
	ssMaxConnsPerCell = 16000
	// ssCrossDiv: one connection in eight is cross-cell. Enough that every
	// window exchanges real traffic across every trunk; few enough that the
	// workload stays dominated by the per-cell hot path.
	ssCrossDiv = 8
	// ssTrunkLatency is the inter-cell trunk latency and therefore the
	// conservative lookahead: domains synchronize at least once per 200 us
	// of virtual time. Think-time traffic (250 ms cadence) is insensitive
	// to it; the lockstep cost it sets is part of what E10 measures.
	ssTrunkLatency = 200 * time.Microsecond
	// ssWarmupRounds/ssMeasureRounds are per-connection request/reply
	// rounds before/inside the measured span. At 10^6 connections a single
	// round is ~25M events, plenty for a stable events/sec figure.
	ssWarmupRounds  = 2
	ssMeasureRounds = 2
	// ssPointRepeats repeats each point's measured span, keeping the repeat
	// with the highest events/sec: external interference — another tenant
	// hammering the shared cache — comes and goes on a timescale of
	// seconds, so the fastest repeat is the best estimate of intrinsic cost
	// on a shared host.
	ssPointRepeats = 2
)

// ShardScalePoint reports one (connection count, shard count) cell of
// experiment E10. Rounds and Events are functions of the seed and the virtual
// poll instants only — identical across shard counts for a fixed Conns (the
// shardscale determinism gate pins this); WallNS and the derived rates are
// host-dependent. CrossPosts is a partition diagnostic (zero when shards=1:
// nothing crosses a domain boundary). Speedup and Efficiency compare against
// the shards=1 point of the same sweep: Efficiency = Speedup / Workers, where
// Workers is the number of goroutines actually driving domains
// (min(shards, GOMAXPROCS)) — on a 1-core host it is 1 and Efficiency
// measures pure lockstep overhead.
type ShardScalePoint struct {
	Conns               int     `json:"conns"`
	Cells               int     `json:"cells"`
	Shards              int     `json:"shards"`
	Workers             int     `json:"workers"`
	Rounds              int64   `json:"rounds"`
	Events              int64   `json:"events"`
	CrossPosts          int64   `json:"cross_posts"`
	WallNS              int64   `json:"wall_ns"`
	EventsPerSec        float64 `json:"events_per_sec"`
	EventsPerSecPerCore float64 `json:"events_per_sec_per_core"`
	AllocsPerEvent      float64 `json:"allocs_per_event"`
	Speedup             float64 `json:"speedup_vs_sequential"`
	Efficiency          float64 `json:"parallel_efficiency"`
}

// ShardScale runs E10: for each connection count, sweep the shard counts and
// derive speedup/efficiency against the sweep's shards=1 point.
func ShardScale(counts, shardCounts []int) ([]ShardScalePoint, error) {
	if len(counts) == 0 {
		counts = DefaultShardScale
	}
	if len(shardCounts) == 0 {
		shardCounts = DefaultShardCounts
	}
	out := make([]ShardScalePoint, 0, len(counts)*len(shardCounts))
	for i, n := range counts {
		seqEPS := 0.0
		for _, s := range shardCounts {
			p, _, err := shardScalePoint(connScaleOptions(int64(9000+i)), n, s, 0, false)
			if err != nil {
				return nil, fmt.Errorf("shardscale %d conns x %d shards: %w", n, s, err)
			}
			if p.Shards == 1 {
				seqEPS = p.EventsPerSec
			}
			if seqEPS > 0 {
				p.Speedup = p.EventsPerSec / seqEPS
				p.Efficiency = p.Speedup / float64(p.Workers)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// shardScalePoint builds one sharded multi-cell scenario from the cell
// options, distributes conns across the cells (one in ssCrossDiv dialing the
// next cell), warms every connection up, then measures events/sec over
// ssPointRepeats spans of ssMeasureRounds rounds per connection. workers=0
// means the group default, min(shards, GOMAXPROCS); the alloc gate pins it
// to 1 to measure the per-event hot path without the per-window goroutine
// launches. digest turns on the per-stream execution digests. The scenario
// is returned so the gates can read the digests and the cells' spans.
func shardScalePoint(cell tcpfailover.Options, conns, shards, workers int, digest bool) (ShardScalePoint, *tcpfailover.ShardedScenario, error) {
	debug.FreeOSMemory()
	cells := ssCells
	if cells > conns {
		cells = conns
	}
	for cells < 64 && conns/cells > ssMaxConnsPerCell {
		cells *= 2
	}
	perCell := conns / cells
	ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
		Cells:     cells,
		Shards:    shards,
		Workers:   workers,
		Cell:      cell,
		CrossLink: ethernet.XConfig{BandwidthBps: 10_000_000_000, Latency: ssTrunkLatency},
		Digest:    digest,
	})
	if err != nil {
		return ShardScalePoint{}, nil, err
	}
	simsBuilt.Add(1)

	// One harness per cell: harness state (rounds counter, shared scratch and
	// reply buffers) is only ever touched by its own cell's events, which all
	// run on the cell's domain goroutine.
	hs := make([]*csHarness, len(ss.Cells))
	for ci, cell := range ss.Cells {
		hs[ci] = newCsHarness(cell.Domain)
		cell.Stream.Use()
		if err := installOnServers(cell.Scenario, hs[ci].serve); err != nil {
			return ShardScalePoint{}, nil, err
		}
	}
	ss.Start()

	// Staggered dials, scheduled under each cell's stream. The first
	// perCell/ssCrossDiv clients of each cell dial the next cell's service
	// through the trunk ring; the rest stay local.
	for ci, cell := range ss.Cells {
		h := hs[ci]
		self := cell.Scenario
		cross := 0
		if len(ss.Cells) > 1 {
			cross = perCell / ssCrossDiv
		}
		next := ss.Cells[(ci+1)%len(ss.Cells)].Scenario
		cell.Stream.Use()
		for i := 0; i < perCell; i++ {
			addr := self.ServiceAddr()
			if i < cross {
				addr = next.ServiceAddr()
			}
			cell.Domain.At(cell.Domain.Now()+time.Duration(i)*csDialStagger, "shardscale.dial", func() {
				h.dial(self.Client.TCP(), addr)
			})
		}
	}

	total := func() int64 {
		var t int64
		for _, h := range hs {
			t += h.rounds
		}
		return t
	}
	firstErr := func() error {
		for _, h := range hs {
			if h.err != nil {
				return h.err
			}
		}
		return nil
	}
	const deadline = 10 * time.Minute // virtual time
	runTo := func(target int64) error {
		cond := func() bool { return firstErr() == nil && total() < target }
		if err := ss.RunWhile(cond, deadline); err != nil {
			return err
		}
		if err := firstErr(); err != nil {
			return err
		}
		if total() < target {
			return fmt.Errorf("virtual deadline before %d rounds (got %d)", target, total())
		}
		return nil
	}

	nConns := int64(perCell) * int64(len(ss.Cells))
	if err := runTo(nConns * ssWarmupRounds); err != nil {
		return ShardScalePoint{}, nil, fmt.Errorf("warmup: %w", err)
	}
	// Collect the setup phase's garbage now so no collection runs inside the
	// measured spans (the steady state itself allocates nothing).
	runtime.GC()

	p := ShardScalePoint{
		Conns:   int(nConns),
		Cells:   len(ss.Cells),
		Shards:  len(ss.Group.Domains()),
		Workers: ss.Group.Workers(),
	}
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < ssPointRepeats; rep++ {
		r0 := total()
		ev0 := ss.Executed()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		err := runTo(r0 + nConns*ssMeasureRounds)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return ShardScalePoint{}, nil, fmt.Errorf("measure: %w", err)
		}
		events := int64(ss.Executed() - ev0)
		if events <= 0 || wall <= 0 {
			return ShardScalePoint{}, nil, fmt.Errorf("empty measured span (%d events in %v)", events, wall)
		}
		eps := float64(events) / wall.Seconds()
		if rep == 0 || eps > p.EventsPerSec {
			p.Rounds = total() - r0
			p.Events = events
			p.WallNS = wall.Nanoseconds()
			p.EventsPerSec = eps
			p.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
		}
	}
	p.CrossPosts = ss.Group.CrossPosts()
	p.EventsPerSecPerCore = p.EventsPerSec / float64(p.Workers)
	return p, ss, nil
}

func renderShardScale(w io.Writer, _ Config, r *Results) {
	fmt.Fprintln(w, "=== E10: sharded parallel scaling (byte-identical engine) ===")
	fmt.Fprintln(w, "(replicated testbed cells on a trunk ring, 1 in 8 connections")
	fmt.Fprintln(w, " cross-cell; the shard count partitions the cells across domain")
	fmt.Fprintln(w, " schedulers in conservative lockstep — results are byte-identical")
	fmt.Fprintln(w, " for every shard count, so events/sec is directly comparable;")
	fmt.Fprintln(w, " speedup/efficiency are vs the shards=1 point, per worker core)")
	points := r.ShardScale
	for i, p := range points {
		if i > 0 && p.Conns != points[i-1].Conns {
			fmt.Fprintln(w)
		}
		if i == 0 || p.Conns != points[i-1].Conns {
			fmt.Fprintf(w, "%8s %6s %7s %8s %12s %12s %14s %14s %8s %6s\n",
				"conns", "cells", "shards", "workers", "rounds", "wall [ms]", "events/s", "ev/s/core", "speedup", "eff")
		}
		fmt.Fprintf(w, "%8d %6d %7d %8d %12d %12.0f %14.0f %14.0f %8.2f %6.2f\n",
			p.Conns, p.Cells, p.Shards, p.Workers, p.Rounds, float64(p.WallNS)/1e6,
			p.EventsPerSec, p.EventsPerSecPerCore, p.Speedup, p.Efficiency)
	}
	fmt.Fprintln(w)
}

// --- E10's cell workload: request/reply with think time ------------------------

const (
	csReqBytes    = 4   // request: fixed-size tokens, content ignored
	csReplyBytes  = 256 // reply per round
	csDialStagger = 5 * time.Microsecond
	// csThink is each connection's pause between rounds. The workload is
	// open-loop on purpose: with back-to-back rounds every connection keeps
	// a frame queued on the LAN forever, and the benchmark would measure a
	// simulated congestion backlog instead of the per-connection hot path.
	// Thinking connections instead hold pending timers — think, delayed
	// ack, retransmission — which is precisely the timer churn the timing
	// wheel exists for.
	csThink = 250 * time.Millisecond
)

// csHarness is the shared state of one cell's connections. The
// request/reply applications below are leaner cousins of internal/apps: with
// 10^5 connections and more, per-connection 32 KB copy buffers would
// dominate the footprint, so every connection of a cell shares one scratch
// buffer (the cell's events run on one goroutine) and the servers share one
// constant reply block (both replicas must produce identical bytes).
type csHarness struct {
	sched   *sim.Scheduler
	scratch []byte
	reply   []byte
	req     [csReqBytes]byte
	rounds  int64 // completed rounds across all connections
	err     error
}

// newCsHarness returns the harness of one scheduler's connections.
func newCsHarness(sched *sim.Scheduler) *csHarness {
	h := &csHarness{sched: sched, scratch: make([]byte, 2048), reply: make([]byte, csReplyBytes)}
	for i := range h.reply {
		h.reply[i] = byte(i)
	}
	return h
}

func (h *csHarness) fail(err error) {
	if h.err == nil {
		h.err = err
	}
}

// serve installs the request/reply server on a server host's stack.
func (h *csHarness) serve(host *netstack.Host) error {
	_, err := host.TCP().Listen(benchPort, func(c *tcp.Conn) {
		s := &csServerConn{h: h, c: c}
		c.OnReadable(s.pump)
		c.OnWritable(s.pump)
	})
	return err
}

// dial opens one client connection from stack to addr and starts its rounds.
func (h *csHarness) dial(stack *tcp.Stack, addr ipv4.Addr) {
	conn, err := stack.Dial(addr, benchPort)
	if err != nil {
		h.fail(fmt.Errorf("dial: %w", err))
		return
	}
	cl := &csClient{h: h, c: conn}
	conn.OnEstablished(cl.send)
	conn.OnReadable(cl.readable)
	conn.OnWritable(cl.flush)
}

// csServerConn answers each 4-byte request with csReplyBytes of the shared
// reply block (the reqReplyConn protocol with a fixed reply size).
type csServerConn struct {
	h      *csHarness
	c      *tcp.Conn
	reqGot int // bytes consumed toward the current request token
	toSend int // reply bytes still owed
}

func (s *csServerConn) pump() {
	for {
		for s.toSend > 0 {
			n := min(s.toSend, csReplyBytes)
			m, err := s.c.Write(s.h.reply[:n])
			if err != nil {
				return // client aborted; the scenario is winding down
			}
			s.toSend -= m
			if m < n {
				return // send buffer full; OnWritable resumes
			}
		}
		n, err := s.c.Read(s.h.scratch)
		if n == 0 {
			if err != nil {
				s.c.Abort()
			}
			return
		}
		s.reqGot += n
		for s.reqGot >= csReqBytes {
			s.reqGot -= csReqBytes
			s.toSend += csReplyBytes
		}
	}
}

// csClient issues one request per completed round, counting rounds into the
// harness.
type csClient struct {
	h       *csHarness
	c       *tcp.Conn
	got     int // reply bytes received toward the current round
	pending int // request bytes not yet accepted by the send buffer
}

func (cl *csClient) send() {
	cl.pending += csReqBytes
	cl.flush()
}

func (cl *csClient) flush() {
	if cl.pending == 0 {
		return
	}
	n, err := cl.c.Write(cl.h.req[:cl.pending])
	if err != nil {
		cl.h.fail(fmt.Errorf("client write: %w", err))
		return
	}
	cl.pending -= n
}

func (cl *csClient) readable() {
	for {
		n, err := cl.c.Read(cl.h.scratch)
		if n == 0 {
			if err != nil {
				cl.h.fail(fmt.Errorf("client read: %w", err))
			}
			return
		}
		cl.got += n
		for cl.got >= csReplyBytes {
			cl.got -= csReplyBytes
			cl.h.rounds++
			// Think, then issue the next request. AfterArg with a
			// top-level function keeps the per-round timer allocation-free
			// (a method-value closure would allocate).
			cl.h.sched.AfterArg(csThink, "shardscale.think", csClientThink, cl)
		}
	}
}

func csClientThink(v any) { v.(*csClient).send() }

// connScaleOptions is the cell configuration — the same cell benchmark/'s
// conn-scale workload builds: failover pair, cheap fixed per-packet host
// costs with batched (NAPI/GRO) delivery, quiet 10 Gbit/s full-duplex links
// so the wire never queues, small TCP buffers so that many connections fit,
// and no detector traffic. The small MSS keeps the reply at one segment
// while still exercising the bridges' per-segment paths. The 1 ms delayed
// ack keeps ack timing (and hence RTT estimates and retransmission
// deadlines) far away from the think-time cadence.
func connScaleOptions(seed int64) tcpfailover.Options {
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerPorts = []uint16{benchPort}
	opts.HostProfile = netstack.Profile{
		StackIngress:  2 * time.Microsecond,
		StackEgress:   2 * time.Microsecond,
		ForwardDelay:  time.Microsecond,
		BridgeDelay:   2 * time.Microsecond,
		BridgeInbound: time.Microsecond,
		NAPIBudget:    8,
	}
	link := ethernet.Config{BandwidthBps: 10_000_000_000, Propagation: time.Microsecond}
	opts.ServerLAN = link
	opts.ClientLink = link
	opts.TCP = tcp.Config{
		MSS:               536,
		SendBufSize:       1024,
		RecvBufSize:       1024,
		DelayedAckTimeout: time.Millisecond,
		DisableNagle:      true,
	}
	noDetectors := false
	opts.StartDetectors = &noDetectors
	return opts
}
