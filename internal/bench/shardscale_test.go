package bench

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// The sharded-engine gates below drive the request/reply cell of
// benchmark/'s conn-scale workload, replicated into eight cells joined by a
// trunk ring (tcpfailover.NewSharded). One client in eight dials the next
// cell's service, so every trunk carries real cross-domain TCP.
const (
	ssCells    = 8
	ssCrossDiv = 8
	// ssTrunkLatency is the inter-cell trunk latency and therefore the
	// conservative lookahead: domains synchronize at least once per 200 us.
	ssTrunkLatency = 200 * time.Microsecond
	// Request/reply rounds per connection before and inside the measured span.
	ssWarmupRounds  = 2
	ssMeasureRounds = 2
)

// shardRun is one sharded run of the cells. Rounds and Events are functions
// of the seed and the 1 ms virtual poll instants only; CrossPosts is zero when
// nothing crosses a domain boundary.
type shardRun struct {
	Conns, Shards              int
	Rounds, Events, CrossPosts int64
	AllocsPerEvent             float64
}

// shardScaleRun builds ssCells cells from the cell options on the given
// shard count, spreads conns across them, warms every connection up, and
// measures allocations over ssMeasureRounds further rounds per connection.
// workers=0 means the group default, min(shards, GOMAXPROCS); digest turns
// on the per-stream execution digests. The scenario is returned so the gates
// can read the digests and the cells' spans.
func shardScaleRun(cell tcpfailover.Options, conns, shards, workers int, digest bool) (shardRun, *tcpfailover.ShardedScenario, error) {
	ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
		Cells:     ssCells,
		Shards:    shards,
		Workers:   workers,
		Cell:      cell,
		CrossLink: ethernet.XConfig{Latency: ssTrunkLatency},
		Digest:    digest,
	})
	if err != nil {
		return shardRun{}, nil, err
	}
	// One harness per cell: its state is only touched by its own cell's
	// events, which all run on the cell's domain goroutine.
	hs := make([]*csHarness, len(ss.Cells))
	for ci, cell := range ss.Cells {
		hs[ci] = newCsHarness(cell.Domain)
		cell.Stream.Use()
		if err := installOnServers(cell.Scenario, hs[ci].serve); err != nil {
			return shardRun{}, nil, err
		}
	}
	ss.Start()

	perCell := conns / ssCells
	for ci, cell := range ss.Cells {
		h, self := hs[ci], cell.Scenario
		next := ss.Cells[(ci+1)%ssCells].Scenario
		cell.Stream.Use()
		for i := 0; i < perCell; i++ {
			addr := self.ServiceAddr()
			if i < perCell/ssCrossDiv {
				addr = next.ServiceAddr()
			}
			cell.Domain.At(cell.Domain.Now()+time.Duration(i)*csDialStagger, "shardscale.dial", func() {
				h.dial(self.Client.TCP(), addr)
			})
		}
	}

	total := func() (t int64) {
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
	runTo := func(target int64) error {
		// Check at fixed 1 ms virtual instants, not at window barriers:
		// barriers move with the partition, so a stop decided at one would
		// execute a partition-dependent set of events.
		for firstErr() == nil && total() < target && ss.Now() < 10*time.Minute {
			if err := ss.RunUntil(ss.Now() + time.Millisecond); err != nil {
				return err
			}
		}
		if err := firstErr(); err != nil {
			return err
		}
		if total() < target {
			return fmt.Errorf("virtual deadline before %d rounds (got %d)", target, total())
		}
		return nil
	}

	nConns := int64(perCell * ssCells)
	if err := runTo(nConns * ssWarmupRounds); err != nil {
		return shardRun{}, nil, fmt.Errorf("warmup: %w", err)
	}
	// Collect the setup phase's garbage so no collection runs inside the
	// measured span (the steady state itself allocates nothing).
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	r0, ev0 := total(), ss.Executed()
	runtime.ReadMemStats(&ms0)
	if err := runTo(r0 + nConns*ssMeasureRounds); err != nil {
		return shardRun{}, nil, fmt.Errorf("measure: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	domains := make(map[*sim.Scheduler]bool)
	for _, c := range ss.Cells {
		domains[c.Domain] = true
	}
	p := shardRun{
		Conns:      int(nConns),
		Shards:     len(domains),
		Rounds:     total() - r0,
		Events:     int64(ss.Executed() - ev0),
		CrossPosts: ss.Group.CrossPosts(),
	}
	if p.Events > 0 {
		p.AllocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(p.Events)
	}
	return p, ss, nil
}

// TestShardScaleDeterministicAcrossShardCounts is the sharded engine's
// determinism gate (CI runs it under -race on every push): the same seed
// through the cells at shards 1, 2 and 4 must produce byte-identical
// per-stream execution digests — the shard count may only change wall-clock
// time.
func TestShardScaleDeterministicAcrossShardCounts(t *testing.T) {
	shardCounts := []int{1, 2, 4}
	const conns = 64 // 8 cells x 8 connections, one of them cross-cell
	points := make([]shardRun, len(shardCounts))
	digs := make([][]sim.StreamDigest, len(shardCounts))
	if err := parallelEach(len(shardCounts), func(i int) error {
		p, ss, err := shardScaleRun(connScaleOptions(42), conns, shardCounts[i], 0, true)
		if err != nil {
			return err
		}
		points[i] = p
		digs[i] = ss.Digests()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(digs[0]) == 0 {
		t.Fatal("sequential run produced no stream digests")
	}
	for i := 1; i < len(shardCounts); i++ {
		if !reflect.DeepEqual(digs[i], digs[0]) {
			t.Errorf("shards=%d: per-stream digests diverge from shards=1:\n seq: %+v\n got: %+v",
				shardCounts[i], digs[0], digs[i])
		}
	}
	if points[2].Shards != 4 {
		t.Errorf("requested 4 shards, built %d", points[2].Shards)
	}
	if points[2].CrossPosts == 0 {
		t.Error("4-shard run buffered no cross-domain deliveries; the gate is not exercising the trunks")
	}
	if points[0].CrossPosts != 0 {
		t.Errorf("sequential run reports %d cross-domain posts, want 0", points[0].CrossPosts)
	}
}

// TestShardScaleSteadyStateAllocs is the allocation gate for the per-event
// hot path (CI runs it on every push). In the measured steady state —
// connections established, buffers pooled, timers recycling through the
// wheel — nothing may allocate per event: not on one shard, not with the
// fleet span recorder attached, and not on the sharded path's cross-domain
// posts, barrier drains, keyed heap injection and trunk relay. Workers is
// pinned to 1 so the measurement sees the per-event path, not the
// per-window goroutine launches.
func TestShardScaleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	for _, tc := range []struct {
		name   string
		shards int
		spans  bool
	}{
		{"one_shard", 1, false},
		{"one_shard_spans", 1, true},
		{"four_shards", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := connScaleOptions(43)
			opts.Spans = tc.spans
			p, ss, err := shardScaleRun(opts, 256, tc.shards, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.Events == 0 || p.Rounds == 0 {
				t.Fatalf("empty measurement: %+v", p)
			}
			if tc.shards > 1 && p.CrossPosts == 0 {
				t.Fatal("no cross-domain deliveries; the gate is not exercising the sharded path")
			}
			if tc.spans {
				// A cross-cell connection's divert mark lands in its server
				// cell's recorder; its dial is recorded once, in its own.
				dialed := 0
				for _, c := range ss.Cells {
					for _, sp := range c.Spans.Spans() {
						if sp.Has(obs.SpanSynSent) {
							dialed++
						}
					}
				}
				if dialed != p.Conns {
					t.Fatalf("%d spans recorded a dial, want one per connection (%d)", dialed, p.Conns)
				}
			}
			// 0.01 allocs/event = one allocation per hundred events; a real
			// per-event or per-delivery allocation shows up as >= 1.0.
			t.Logf("%.4f allocs/event", p.AllocsPerEvent)
			if p.AllocsPerEvent >= 0.01 {
				t.Errorf("steady-state allocations regressed: %.4f allocs/event (want < 0.01)", p.AllocsPerEvent)
			}
		})
	}
}

// --- the cell's workload: request/reply with think time ----------------------

const (
	csReqBytes    = 4   // request: fixed-size tokens, content ignored
	csReplyBytes  = 256 // reply per round
	csDialStagger = 5 * time.Microsecond
	// csThink is each connection's pause between rounds: thinking
	// connections hold pending timers (think, delayed ack, retransmission)
	// instead of keeping a frame queued on the LAN forever.
	csThink = 250 * time.Millisecond
)

// csHarness is the shared state of one cell's connections: every connection
// shares one scratch buffer (the cell's events run on one goroutine) and the
// servers share one constant reply block (both replicas must produce
// identical bytes).
type csHarness struct {
	sched   *sim.Scheduler
	scratch []byte
	reply   []byte
	req     [csReqBytes]byte
	rounds  int64 // completed rounds across all connections
	err     error
}

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
// reply block.
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
			// Think, then issue the next request. AfterArg with a top-level
			// function keeps the per-round timer allocation-free (a
			// method-value closure would allocate).
			cl.h.sched.AfterArg(csThink, "shardscale.think", csClientThink, cl)
		}
	}
}

func csClientThink(v any) { v.(*csClient).send() }

// connScaleOptions is the cell configuration — the same cell benchmark/'s
// conn-scale workload builds: failover pair, cheap fixed per-packet host
// costs with batched (NAPI/GRO) delivery, quiet 10 Gbit/s full-duplex links
// so the wire never queues, small TCP buffers, and no detector traffic. The
// 1 ms delayed ack keeps ack timing far away from the think-time cadence.
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
