package main

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// conn-scale: E8's shape restated in the benchmark's own files. Thousands
// of concurrent connections through the failover pair, each a closed loop
// of 4-byte request → 256-byte single-segment reply → think (uniform in
// 200–300 ms, drawn per round from the client's seeded stream), on
// quiet 10 Gbit/s links with a cheap fixed host profile and no detectors.
// The smallest packets and the largest working set: timers, flow tables,
// NAPI batching and per-segment tcp/core fixed cost dominate; payload work
// and LAN contention are negligible.
//
// The applications are the benchmark's own, and lean on purpose: with
// internal/apps every connection on three hosts would own a 32 KB copy
// buffer and the heap metric would measure the test app. Here every
// connection shares one scratch buffer and the servers one reply block, so
// host_heap_MB ÷ conns is the system's own end-to-end bytes per live
// connection.
const (
	csReqBytes    = 4
	csReplyBytes  = 256
	csThinkMin    = 200 * time.Millisecond
	csThinkSpan   = 100 * time.Millisecond
	csDialStagger = 5 * time.Microsecond
)

type connScale struct {
	single
	t tier

	scratch []byte
	reply   []byte
	req     [csReqBytes]byte
	rounds  int64 // completed rounds across all connections
	bad     int64 // rounds whose reply had a wrong byte
	err     error

	recording bool
	stopping  bool // quiesce: clients stop thinking up new rounds
	lat       []int64

	slices   int
	target   int64
	winVirt0 time.Duration
	winSeg0  int64
	winEv0   int64
	res      windowResult
}

// refMix: 10 000 connections' state is a working set far beyond the caches,
// so part of the run reacts to the box like the kernel's dependent loads.
func (w *connScale) refMix() float64 { return 0.6 }

func (w *connScale) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// csServerConn answers each 4-byte request with the shared reply block.
type csServerConn struct {
	w      *connScale
	c      *tcp.Conn
	reqGot int
	toSend int
}

func (s *csServerConn) pump() {
	for {
		for s.toSend > 0 {
			// toSend counts whole replies plus the unsent tail of the
			// current one, so its remainder locates the next reply byte.
			at := (csReplyBytes - s.toSend%csReplyBytes) % csReplyBytes
			n := csReplyBytes - at
			m, err := s.c.Write(s.w.reply[at:])
			if err != nil {
				return // client aborted; the scenario is winding down
			}
			s.toSend -= m
			if m < n {
				return // send buffer full; OnWritable resumes
			}
		}
		n, err := s.c.Read(s.w.scratch)
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

// csClient issues one request per completed round.
type csClient struct {
	w        *connScale
	c        *tcp.Conn
	got      int
	pending  int
	issuedAt time.Duration
	bad      bool
	rng      uint64 // xorshift64 state: the client's think times
}

// think draws the pause before the client's next request.
func (cl *csClient) think() time.Duration {
	x := cl.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	cl.rng = x
	return csThinkMin + time.Duration(x%uint64(csThinkSpan))
}

func (cl *csClient) send() {
	cl.issuedAt = cl.w.sc.Sched.Now()
	cl.pending += csReqBytes
	cl.flush()
}

func (cl *csClient) flush() {
	if cl.pending == 0 {
		return
	}
	n, err := cl.c.Write(cl.w.req[:cl.pending])
	if err != nil {
		cl.w.fail(fmt.Errorf("client write: %w", err))
		return
	}
	cl.pending -= n
}

func (cl *csClient) readable() {
	w := cl.w
	for {
		n, err := cl.c.Read(w.scratch)
		if n == 0 {
			if err != nil {
				w.fail(fmt.Errorf("client read: %w", err))
			}
			return
		}
		for _, b := range w.scratch[:n] {
			if b != w.reply[cl.got%csReplyBytes] {
				cl.bad = true
			}
			cl.got++
		}
		for cl.got >= csReplyBytes {
			cl.got -= csReplyBytes
			w.rounds++
			if cl.bad {
				w.bad++
				cl.bad = false
			}
			if w.recording && len(w.lat) < cap(w.lat) {
				w.lat = append(w.lat, int64(w.sc.Sched.Now()-cl.issuedAt))
			}
			// AfterArg with a top-level function keeps the per-round timer
			// allocation-free (a method-value closure would allocate).
			w.sc.Sched.AfterArg(cl.think(), "connscale.think", csClientThink, cl)
		}
	}
}

func csClientThink(v any) {
	if cl := v.(*csClient); !cl.w.stopping {
		cl.send()
	}
}

func (w *connScale) quiesce() error {
	w.stopping = true
	return w.single.quiesce()
}

func connScaleOptions(seed int64) tcpfailover.Options {
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerPorts = []uint16{servicePort}
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

func (w *connScale) setup(seed int64, rep int, mode runMode, tr *tracer) error {
	simSeed := mixSeed(seed, rep)
	if err := w.build(connScaleOptions(simSeed), mode, tr); err != nil {
		return err
	}
	sc, n := w.sc, w.t.conns
	w.scratch = make([]byte, 2048)
	w.reply = make([]byte, csReplyBytes)
	for i := range w.reply {
		w.reply[i] = byte(i*7 + 3)
	}
	w.rounds, w.bad, w.err, w.slices = 0, 0, nil, 0
	w.recording, w.stopping = false, false
	w.lat = make([]int64, 0, n*w.t.connWindow)
	err := installOnServers(sc, func(host *netstack.Host) error {
		_, err := host.TCP().Listen(servicePort, func(c *tcp.Conn) {
			s := &csServerConn{w: w, c: c}
			c.OnReadable(s.pump)
			c.OnWritable(s.pump)
		})
		return err
	})
	if err != nil {
		return err
	}
	sc.Start()
	// Stagger the dials so connection set-up is a ramp, not a thundering
	// herd of simultaneous SYNs.
	for i := 0; i < n; i++ {
		sc.Sched.At(sc.Now()+time.Duration(i)*csDialStagger, "connscale.dial", func() {
			conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), servicePort)
			if err != nil {
				w.fail(fmt.Errorf("dial: %w", err))
				return
			}
			cl := &csClient{w: w, c: conn, rng: uint64(mixSeed(simSeed, i)) | 1}
			conn.OnEstablished(cl.send)
			conn.OnReadable(cl.readable)
			conn.OnWritable(cl.flush)
		})
	}
	w.target = int64(n) * int64(w.t.connWarmRounds)
	if err := w.runTo(w.target); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.recording = true
	w.winVirt0, w.winSeg0, w.winEv0 = sc.Now(), w.segments(), w.events()
	return nil
}

func (w *connScale) runTo(target int64) error {
	if err := w.runUntil(func() bool { return w.err != nil || w.rounds >= target }); err != nil {
		return err
	}
	return w.err
}

// slice is one round per connection.
func (w *connScale) slice() (bool, error) {
	w.target += int64(w.t.conns)
	if err := w.runTo(w.target); err != nil {
		return false, err
	}
	w.slices++
	if w.slices != w.t.connWindow {
		return false, nil
	}
	w.recording = false
	n := int64(len(w.lat))
	w.res = windowResult{
		attempted: n,
		failed:    w.bad,
		payload:   (n - w.bad) * csReplyBytes,
		virt:      w.sc.Now() - w.winVirt0,
		lat:       w.lat,
		segments:  w.segments() - w.winSeg0,
		events:    w.events() - w.winEv0,
		digest:    digestOf(w.sc.Sched.StreamDigests()),
	}
	return true, nil
}

func (w *connScale) window() (windowResult, error) { return w.res, nil }
