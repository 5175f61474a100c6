package tcp

import (
	"bytes"
	"cmp"
	"errors"
	"io"
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/sim"
)

// pair wires two stacks together through the scheduler with a fixed
// one-way delay and controllable loss, bypassing the full netstack — pure
// TCP state-machine testing. Each pipe seals what it carries, as the
// netstack's output does.
type pair struct {
	sched    *sim.Scheduler
	a, b     *Stack
	aAddr    ipv4.Addr
	bAddr    ipv4.Addr
	delay    time.Duration
	dropToB  func(seg []byte) bool
	dropToA  func(seg []byte) bool
	toBCount int
	toACount int
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	p := &pair{
		sched: sim.New(1),
		aAddr: ipv4.MustParseAddr("10.0.0.1"),
		bAddr: ipv4.MustParseAddr("10.0.0.2"),
		delay: 500 * time.Microsecond,
	}
	p.a = NewStack(p.sched, cfg, func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		defer pkt.Release()
		SealChecksum(src, dst, pkt.Bytes())
		p.toBCount++
		if p.dropToB != nil && p.dropToB(pkt.Bytes()) {
			return nil
		}
		cp := append([]byte(nil), pkt.Bytes()...)
		p.sched.After(p.delay, "pipe.ab", func() { p.b.Input(src, dst, cp) })
		return nil
	}, func(ipv4.Addr) (ipv4.Addr, bool) { return p.aAddr, true })
	p.b = NewStack(p.sched, cfg, func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		defer pkt.Release()
		SealChecksum(src, dst, pkt.Bytes())
		p.toACount++
		if p.dropToA != nil && p.dropToA(pkt.Bytes()) {
			return nil
		}
		cp := append([]byte(nil), pkt.Bytes()...)
		p.sched.After(p.delay, "pipe.ba", func() { p.a.Input(src, dst, cp) })
		return nil
	}, func(ipv4.Addr) (ipv4.Addr, bool) { return p.bAddr, true })
	return p
}

// connect establishes a connection from a to b:port and returns both ends.
func (p *pair) connect(t *testing.T, port uint16) (client, server *Conn) {
	t.Helper()
	if _, err := p.b.Listen(port, func(c *Conn) { server = c }); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.Dial(p.bAddr, port)
	if err != nil {
		t.Fatal(err)
	}
	established := false
	c.OnEstablished(func() { established = true })
	p.runUntil(t, func() bool { return established && server != nil }, time.Second)
	return c, server
}

func (p *pair) runUntil(t *testing.T, cond func() bool, max time.Duration) {
	t.Helper()
	deadline := p.sched.Now() + max
	for !cond() {
		if p.sched.Now() > deadline {
			t.Fatalf("condition not met by %v", max)
		}
		if !p.sched.Step() {
			if cond() {
				return
			}
			t.Fatalf("event queue empty at %v before condition", p.sched.Now())
		}
	}
}

func TestHandshakeStates(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	if c.State() != StateEstablished || s.State() != StateEstablished {
		t.Fatalf("states after handshake: %v / %v", c.State(), s.State())
	}
	if c.MSS() != 1460 || s.MSS() != 1460 {
		t.Errorf("negotiated MSS %d/%d", c.MSS(), s.MSS())
	}
}

func TestMSSNegotiationTakesMinimum(t *testing.T) {
	p := newPair(t, Config{})
	// Rebuild b with a smaller MSS.
	small := Config{MSS: 536}
	p.b = NewStack(p.sched, small, func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		defer pkt.Release()
		SealChecksum(src, dst, pkt.Bytes())
		cp := append([]byte(nil), pkt.Bytes()...)
		p.sched.After(p.delay, "pipe.ba", func() { p.a.Input(src, dst, cp) })
		return nil
	}, func(ipv4.Addr) (ipv4.Addr, bool) { return p.bAddr, true })
	c, s := p.connect(t, 80)
	if c.MSS() != 536 || s.MSS() != 536 {
		t.Errorf("negotiated MSS %d/%d, want 536", c.MSS(), s.MSS())
	}
}

func TestDataTransferBothDirections(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)

	var atServer, atClient []byte
	buf := make([]byte, 4096)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			atServer = append(atServer, buf[:n]...)
		}
	})
	c.OnReadable(func() {
		for {
			n, _ := c.Read(buf)
			if n == 0 {
				return
			}
			atClient = append(atClient, buf[:n]...)
		}
	})
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool {
		return string(atServer) == "ping" && string(atClient) == "pong"
	}, time.Second)
}

func TestGracefulCloseStateWalk(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)

	var cClosed, sClosed bool
	var cErr, sErr error
	c.OnClose(func(err error) { cClosed, cErr = true, err })
	s.OnClose(func(err error) { sClosed, sErr = true, err })
	sSawEOF := false
	s.OnReadable(func() {
		if _, err := s.Read(make([]byte, 1)); err == io.EOF {
			sSawEOF = true
			s.Close()
		}
	})
	c.Close() // active close on the client

	p.runUntil(t, func() bool { return cClosed && sClosed }, timeWait+time.Second)
	if !sSawEOF {
		t.Error("server never observed EOF")
	}
	if cErr != nil || sErr != nil {
		t.Errorf("close errors: %v / %v", cErr, sErr)
	}
}

// TestTimeWaitReleasesRings: a connection lingering in TIME-WAIT has had
// everything acknowledged, so it holds no send storage, and no receive
// storage unless the application has left data unread. Its peer, which
// closed second and went LAST-ACK → CLOSED without a TIME-WAIT, has given
// both rings back as well.
func TestTimeWaitReleasesRings(t *testing.T) {
	defer netbuf.SetLeakCheck(false)
	for _, unread := range []bool{false, true} {
		netbuf.SetLeakCheck(true)
		p := newPair(t, Config{})
		c, s := p.connect(t, 80)
		s.OnReadable(func() {
			for {
				n, err := s.Read(make([]byte, 4096))
				if err == io.EOF {
					// Reply, then close: the client is in FIN-WAIT-2 and
					// enters TIME-WAIT on this FIN.
					_, _ = s.Write(bytes.Repeat([]byte{7}, 3000))
					s.Close()
				}
				if n == 0 {
					return
				}
			}
		})
		sawEOF := false
		c.OnReadable(func() {
			for !unread { // unread: the application never reads the reply
				n, err := c.Read(make([]byte, 1000))
				if err == io.EOF {
					sawEOF = true
				}
				if n == 0 {
					return
				}
			}
		})
		if _, err := c.Write(bytes.Repeat([]byte{9}, 20000)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		p.runUntil(t, func() bool { return c.State() == StateTimeWait }, 5*time.Second)
		if c.sndBuf.Cap() != 0 {
			t.Errorf("unread=%v: TIME-WAIT connection holds a %d-byte send buffer", unread, c.sndBuf.Cap())
		}
		if c.SendFree() != p.a.Config().SendBufSize || c.rcvFree()+c.rcvBuf.Ready() != p.a.Config().RecvBufSize {
			t.Errorf("unread=%v: logical capacities changed: %d / %d", unread, c.SendFree(), c.rcvFree()+c.rcvBuf.Ready())
		}
		p.runUntil(t, func() bool { return s.State() == StateClosed }, time.Second)
		if s.sndBuf.Cap() != 0 || s.rcvBuf.Cap() != 0 {
			t.Errorf("unread=%v: connection closed from LAST-ACK holds %d + %d bytes of ring storage",
				unread, s.sndBuf.Cap(), s.rcvBuf.Cap())
		}
		// The store agrees: nothing is out but the unread reply's ring.
		if live := netbuf.LiveBytes(); live != int64(c.rcvBuf.Cap()) {
			t.Errorf("unread=%v: %d bytes of ring storage live, the connections hold %d", unread, live, c.rcvBuf.Cap())
		}
		if !unread {
			if !sawEOF || c.rcvBuf.Cap() != 0 {
				t.Errorf("TIME-WAIT connection read dry (EOF %v) holds a %d-byte receive buffer", sawEOF, c.rcvBuf.Cap())
			}
			continue
		}
		// The unread bytes survive TIME-WAIT entry and are still readable.
		rest := make([]byte, 4096)
		n, err := c.Read(rest)
		if err != nil || n != 3000 || !bytes.Equal(rest[:n], bytes.Repeat([]byte{7}, n)) {
			t.Fatalf("reading the reply in TIME-WAIT: %d bytes, %v", n, err)
		}
	}
}

// TestDrainedRingsPark: a ring holds storage only while it holds bytes. A
// send ring parks when the ack of its last byte arrives, a receive ring when
// a read takes its last byte and nothing waits beyond a gap, and an idle
// ESTABLISHED pair holds no ring storage at all. Parking changes no logical
// capacity: SendFree and rcvFree read the same at every step as the bytes
// held say they must.
func TestDrainedRingsPark(t *testing.T) {
	defer netbuf.SetLeakCheck(false)
	// dropNth drops the nth full-sized data segment (counted from 1) that
	// crosses the pipe it guards.
	dropNth := func(n int) func([]byte) bool {
		seen := 0
		return func(seg []byte) bool {
			if len(RawPayload(seg)) != 1460 {
				return false
			}
			seen++
			return seen == n
		}
	}
	setup := func(t *testing.T) (p *pair, c, s *Conn, holds func(step string, conn *Conn, unacked, unread int)) {
		netbuf.SetLeakCheck(true)
		p = newPair(t, Config{})
		c, s = p.connect(t, 80)
		cfg := p.a.Config()
		holds = func(step string, conn *Conn, unacked, unread int) {
			t.Helper()
			if conn.SendFree() != cfg.SendBufSize-unacked || conn.rcvFree() != cfg.RecvBufSize-unread {
				t.Errorf("%s: SendFree %d, rcvFree %d; want %d, %d", step,
					conn.SendFree(), conn.rcvFree(), cfg.SendBufSize-unacked, cfg.RecvBufSize-unread)
			}
		}
		return p, c, s, holds
	}
	reply := bytes.Repeat([]byte{7}, 256)

	t.Run("round-trip", func(t *testing.T) {
		p, c, s, holds := setup(t)
		got := 0
		s.OnReadable(func() {
			if n, _ := s.Read(make([]byte, 64)); n > 0 {
				_, _ = s.Write(reply)
			}
		})
		c.OnReadable(func() {
			n, _ := c.Read(make([]byte, 512))
			got += n
		})
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		p.runUntil(t, func() bool { return got == len(reply) && c.sndBuf.Ready() == 0 && s.sndBuf.Ready() == 0 }, time.Second)
		if c.State() != StateEstablished || s.State() != StateEstablished {
			t.Fatalf("states %v / %v, want both ESTABLISHED", c.State(), s.State())
		}
		for _, r := range []*ByteRing{&c.sndBuf, &c.rcvBuf, &s.sndBuf, &s.rcvBuf} {
			if r.Cap() != 0 {
				t.Errorf("an idle ring holds %d bytes of storage", r.Cap())
			}
		}
		if live := netbuf.LiveBytes(); live != 0 {
			t.Errorf("%d bytes of ring storage live between rounds", live)
		}
		holds("client idle", c, 0, 0)
		holds("server idle", s, 0, 0)
	})

	t.Run("unread", func(t *testing.T) {
		const k = 56
		p, c, s, holds := setup(t)
		if _, err := s.Write(reply); err != nil {
			t.Fatal(err)
		}
		p.runUntil(t, func() bool { return c.rcvBuf.Ready() == len(reply) && s.sndBuf.Ready() == 0 }, time.Second)
		if n, _ := c.Read(make([]byte, len(reply)-k)); n != len(reply)-k {
			t.Fatalf("read %d bytes, want %d", n, len(reply)-k)
		}
		if c.rcvBuf.Cap() == 0 {
			t.Fatal("a receive ring with unread bytes holds no storage")
		}
		if live := netbuf.LiveBytes(); live != int64(c.rcvBuf.Cap()) {
			t.Errorf("%d bytes of ring storage live, the unread bytes' ring is %d", live, c.rcvBuf.Cap())
		}
		holds("k unread", c, 0, k)
		if n, _ := c.Read(make([]byte, 512)); n != k {
			t.Fatalf("read %d bytes, want %d", n, k)
		}
		if c.rcvBuf.Cap() != 0 || netbuf.LiveBytes() != 0 {
			t.Errorf("read dry: the ring holds %d bytes, %d live", c.rcvBuf.Cap(), netbuf.LiveBytes())
		}
		holds("read dry", c, 0, 0)
	})

	t.Run("beyond-gap", func(t *testing.T) {
		p, c, s, holds := setup(t)
		if _, err := s.Write(reply[:100]); err != nil {
			t.Fatal(err)
		}
		p.runUntil(t, func() bool { return c.rcvBuf.Ready() == 100 && s.sndBuf.Ready() == 0 }, time.Second)
		p.dropToA = dropNth(1)
		data := bytes.Repeat([]byte{3}, 2*1460)
		if _, err := s.Write(data); err != nil {
			t.Fatal(err)
		}
		p.runUntil(t, func() bool { return c.rcvBuf.Len() > c.rcvBuf.Ready() }, time.Second)
		// Reading everything before the gap leaves the span beyond it.
		if n, _ := c.Read(make([]byte, 4096)); n != 100 || c.rcvBuf.Cap() == 0 {
			t.Fatalf("with a span held beyond the gap: read %d, ring storage %d", n, c.rcvBuf.Cap())
		}
		holds("span held", c, 0, 0)
		p.runUntil(t, func() bool { return c.rcvBuf.Ready() == len(data) }, 5*time.Second)
		if n, _ := c.Read(make([]byte, 1000)); n != 1000 || c.rcvBuf.Cap() == 0 {
			t.Fatalf("gap filled, part read: read %d, ring storage %d", n, c.rcvBuf.Cap())
		}
		holds("part read", c, 0, len(data)-1000)
		if n, _ := c.Read(make([]byte, 4096)); n != len(data)-1000 {
			t.Fatalf("read %d bytes, want %d", n, len(data)-1000)
		}
		if c.rcvBuf.Cap() != 0 {
			t.Errorf("read dry after the gap filled: the ring holds %d bytes", c.rcvBuf.Cap())
		}
		holds("read dry", c, 0, 0)
	})

	t.Run("partly-acked", func(t *testing.T) {
		p, c, s, holds := setup(t)
		p.dropToB = dropNth(2)
		s.OnReadable(func() {
			for n := 1; n > 0; {
				n, _ = s.Read(make([]byte, 4096))
			}
		})
		if _, err := c.Write(bytes.Repeat([]byte{9}, 3000)); err != nil {
			t.Fatal(err)
		}
		p.runUntil(t, func() bool { return c.sndBuf.Ready() < 3000 }, time.Second)
		// The first segment is acked; the dropped second and the third wait.
		if queued := c.sndBuf.Ready(); queued != 3000-1460 || c.sndBuf.Cap() == 0 {
			t.Fatalf("after a partial ack: %d bytes queued, ring storage %d", queued, c.sndBuf.Cap())
		}
		holds("partly acked", c, 3000-1460, 0)
		p.runUntil(t, func() bool { return c.sndBuf.Ready() == 0 }, 5*time.Second)
		if c.sndBuf.Cap() != 0 {
			t.Errorf("every byte acked: the send ring holds %d bytes", c.sndBuf.Cap())
		}
		holds("all acked", c, 0, 0)
		if live := netbuf.LiveBytes(); live != 0 {
			t.Errorf("%d bytes of ring storage live once both ends drained", live)
		}
	})
}

// TestResetAndAbortReleaseRings: a connection torn down without a close
// handshake gives its storage back at once too. The aborting side drops the
// bytes it could not send; the side that receives the RST keeps what its
// TestCrashStopsTheStack: a crashed stack runs no code. Its ESTABLISHED
// connection holds unacknowledged and unread bytes with a delayed ACK armed,
// and a listener waits beside it. After Crash nothing leaves the stack,
// OnClose never runs, no connection or listener is left, every ring is back
// in the store and no timer of the stack is left to fire.
func TestCrashStopsTheStack(t *testing.T) {
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	if _, err := p.b.Listen(81, func(*Conn) { t.Error("a crashed stack accepted a connection") }); err != nil {
		t.Fatal(err)
	}
	// s's bytes never reach c, so they stay unacknowledged. Only c's first
	// segment reaches s: without PSH, unread, it arms s's delayed ACK.
	p.dropToA = func([]byte) bool { return true }
	toB := 0
	p.dropToB = func([]byte) bool { toB++; return toB > 1 }
	if _, err := s.Write(make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool { return s.rcvBuf.Ready() > 0 }, time.Second)
	if s.sndBuf.Ready() == 0 || !s.timer.Pending() || !s.delackTimer.Pending() {
		t.Fatalf("set-up: %d bytes unacknowledged, retransmit armed %v, delayed ACK armed %v",
			s.sndBuf.Ready(), s.timer.Pending(), s.delackTimer.Pending())
	}
	s.OnClose(func(err error) { t.Errorf("OnClose(%v) ran on a crashed stack", err) })
	out := p.toACount
	p.b.Crash()
	p.dropToB = func([]byte) bool { return true } // the crashed host's NIC is down
	c.Abort()
	p.runUntil(t, func() bool { return p.sched.PendingEvents() == 0 }, time.Second)
	if p.toACount != out || len(p.b.Conns()) != 0 || len(p.b.listeners) != 0 {
		t.Errorf("after the crash: %d segments out, %d connections and %d listeners left",
			p.toACount-out, len(p.b.Conns()), len(p.b.listeners))
	}
	if live := netbuf.LiveBytes(); live != 0 {
		t.Errorf("%d bytes of ring storage live after the crash", live)
	}
}

// application has not read yet, and only that.
func TestResetAndAbortReleaseRings(t *testing.T) {
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	// s never reads: c's 100 KB fills s's receive ring and backs up in c's
	// send ring. s has bytes of its own in flight too.
	if n, _ := c.Write(make([]byte, 100_000)); n == 0 {
		t.Fatal("nothing written")
	}
	p.runUntil(t, func() bool { return s.rcvBuf.Ready() > 30_000 }, 5*time.Second)
	if _, err := s.Write(bytes.Repeat([]byte{5}, 2000)); err != nil {
		t.Fatal(err)
	}
	if c.sndBuf.Cap() == 0 || s.rcvBuf.Cap() == 0 || s.sndBuf.Cap() == 0 {
		t.Fatal("set-up: the rings under test hold no storage")
	}
	c.Abort()
	if c.sndBuf.Cap() != 0 || c.rcvBuf.Cap() != 0 {
		t.Errorf("aborted connection holds %d + %d bytes of ring storage", c.sndBuf.Cap(), c.rcvBuf.Cap())
	}
	p.runUntil(t, func() bool { return s.State() == StateClosed }, time.Second)
	if s.sndBuf.Cap() != 0 {
		t.Errorf("reset connection holds a %d-byte send buffer", s.sndBuf.Cap())
	}
	// The store agrees: nothing is out but the ring of unread bytes.
	if live := netbuf.LiveBytes(); live != int64(s.rcvBuf.Cap()) {
		t.Errorf("%d bytes of ring storage live, the unread bytes' ring is %d", live, s.rcvBuf.Cap())
	}
	unread := s.rcvBuf.Ready()
	if n, _ := s.Read(make([]byte, 100_000)); n != unread || unread == 0 {
		t.Errorf("after the reset %d of %d buffered bytes were readable", n, unread)
	}
}

func TestHalfCloseAllowsContinuedTransfer(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)

	var atClient []byte
	buf := make([]byte, 4096)
	gotEOF := false
	c.OnReadable(func() {
		for {
			n, err := c.Read(buf)
			if n > 0 {
				atClient = append(atClient, buf[:n]...)
				continue
			}
			if err == io.EOF {
				gotEOF = true
			}
			return
		}
	})
	// Client half-closes immediately; server keeps sending afterward.
	c.Close()
	serverSends := func() {
		sEOF := false
		s.OnReadable(func() {
			if _, err := s.Read(make([]byte, 16)); err == io.EOF && !sEOF {
				sEOF = true
				if _, err := s.Write([]byte("late data after client FIN")); err != nil {
					t.Errorf("server write in CLOSE-WAIT: %v", err)
				}
				s.Close()
			}
		})
	}
	serverSends()
	p.runUntil(t, func() bool { return gotEOF }, time.Second)
	if string(atClient) != "late data after client FIN" {
		t.Errorf("client got %q", atClient)
	}
	if c.State() != StateTimeWait && c.State() != StateClosed {
		t.Errorf("client state %v after full close", c.State())
	}
}

func TestSimultaneousClose(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	var cClosed, sClosed bool
	c.OnClose(func(error) { cClosed = true })
	s.OnClose(func(error) { sClosed = true })
	c.Close()
	s.Close() // both FINs cross in flight
	p.runUntil(t, func() bool { return cClosed && sClosed }, timeWait+5*time.Second)
}

func TestConnectionRefusedGetsRST(t *testing.T) {
	p := newPair(t, Config{})
	c, err := p.a.Dial(p.bAddr, 9999) // nobody listens
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	closed := false
	c.OnClose(func(err error) { closed, gotErr = true, err })
	p.runUntil(t, func() bool { return closed }, time.Second)
	if gotErr != ErrConnRefused {
		t.Errorf("close error = %v, want ErrConnRefused", gotErr)
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	var sErr error
	sClosed := false
	s.OnClose(func(err error) { sClosed, sErr = true, err })
	c.Abort()
	if c.Err() != ErrAborted {
		t.Errorf("aborter error = %v", c.Err())
	}
	p.runUntil(t, func() bool { return sClosed }, time.Second)
	if sErr != ErrConnReset {
		t.Errorf("peer error = %v, want ErrConnReset", sErr)
	}
}

func TestRetransmissionRecoversSingleLoss(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	var atServer []byte
	buf := make([]byte, 4096)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			atServer = append(atServer, buf[:n]...)
		}
	})
	// Drop the first data segment toward the server.
	dropped := false
	p.dropToB = func(seg []byte) bool {
		if !dropped && len(RawPayload(seg)) > 0 {
			dropped = true
			return true
		}
		return false
	}
	want := []byte("must arrive despite the loss")
	if _, err := c.Write(want); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool { return bytes.Equal(atServer, want) }, 5*time.Second)
	if !dropped {
		t.Fatal("loss injector never fired")
	}
	if p.a.Stats().Retransmissions == 0 {
		t.Error("no retransmissions recorded")
	}
}

// TestOldDuplicateDrawsAck: an old duplicate (data, FIN or SYN ending at or
// before rcvNxt) says the peer missed an ACK, so it draws one at once in any
// state (RFC 793 p. 69). a's bare ACKs are lost until b retransmits; b's
// side must then end within one RTO.
func TestOldDuplicateDrawsAck(t *testing.T) {
	for _, synAck := range []bool{true, false} {
		p := newPair(t, Config{})
		armed, rexmit, done := synAck, time.Duration(0), time.Duration(0)
		p.dropToB = func(seg []byte) bool { return armed && RawFlags(seg) == FlagACK && p.b.Stats().Retransmissions == 0 }
		p.dropToA = func([]byte) bool {
			if rexmit == 0 && p.b.Stats().Retransmissions > 0 {
				rexmit = p.sched.Now()
			}
			return false
		}
		if synAck {
			// a is ESTABLISHED and sends nothing more: only its answer to the
			// retransmitted SYN-ACK completes b's side.
			if _, err := p.b.Listen(80, func(*Conn) { done = p.sched.Now() }); err != nil {
				t.Fatal(err)
			}
			if _, err := p.a.Dial(p.bAddr, 80); err != nil {
				t.Fatal(err)
			}
		} else {
			// a closes first; b answers EOF with two segments, the FIN on the
			// second, and closes: a sits in TIME-WAIT, b in LAST-ACK.
			c, s := p.connect(t, 80)
			s.OnReadable(func() {
				if _, err := s.Read(make([]byte, 64)); err == io.EOF {
					armed = true
					_, _ = s.Write(make([]byte, 2000))
					s.Close()
				}
			})
			s.OnClose(func(error) { done = p.sched.Now() })
			c.Close()
		}
		p.runUntil(t, func() bool { return done > 0 }, timeWait)
		if rexmit == 0 || done-rexmit > minRTO {
			t.Errorf("synAck %v: b retransmitted at %v and ended at %v, want within %v", synAck, rexmit, done, minRTO)
		}
	}
}

func TestFastRetransmitOnDupAcks(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	var got int
	buf := make([]byte, 65536)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			got += n
		}
	})
	// Drop exactly one mid-stream segment so later segments generate dup
	// acks (the stream is long enough for 3 duplicates).
	seen := 0
	p.dropToB = func(seg []byte) bool {
		if len(RawPayload(seg)) > 0 {
			seen++
			return seen == 8
		}
		return false
	}
	data := make([]byte, 30000)
	sent := 0
	pump := func() {
		for sent < len(data) {
			n, _ := c.Write(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	c.OnWritable(pump)
	pump()
	p.runUntil(t, func() bool { return got == len(data) }, 5*time.Second)
	if p.a.Stats().FastRetransmits == 0 {
		t.Error("loss recovered without fast retransmit (RTO only)")
	}
	// Fast retransmit should beat the minimum RTO.
	if p.sched.Now() >= 200*time.Millisecond {
		t.Errorf("recovery took %v, want < min RTO via fast retransmit", p.sched.Now())
	}
}

func TestZeroWindowAndPersistProbe(t *testing.T) {
	p := newPair(t, Config{RecvBufSize: 4096})
	c, s := p.connect(t, 80)
	// The server application reads nothing: the 4 KB window fills and the
	// client must stall, then recover once the app drains.
	data := make([]byte, 16384)
	sent := 0
	pump := func() {
		for sent < len(data) {
			n, _ := c.Write(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	c.OnWritable(pump)
	pump()
	p.runUntil(t, func() bool { return s.rcvBuf.Ready() == 4096 }, 5*time.Second)

	// Drain after a long stall; the persist machinery must revive the flow.
	var got int
	p.sched.After(2*time.Second, "drain", func() {
		buf := make([]byte, 4096)
		var drain func()
		drain = func() {
			for {
				n, _ := s.Read(buf)
				if n == 0 {
					return
				}
				got += n
			}
		}
		s.OnReadable(drain)
		drain()
	})
	p.runUntil(t, func() bool { return got == len(data) }, 120*time.Second)
}

// TestTimerSlotZeroWindowReopens: the window fills, stalls for two seconds
// and then reopens in 700-byte reads. Retransmit and persist share one
// slot: after every event, data in flight means the slot holds the
// retransmit, and the persist timer holds it only while nothing is in
// flight. The stream arrives byte for byte.
func TestTimerSlotZeroWindowReopens(t *testing.T) {
	p := newPair(t, Config{RecvBufSize: 4096})
	c, s := p.connect(t, 80)
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	if n, err := c.Write(data); n != len(data) || err != nil {
		t.Fatalf("Write took %d bytes, %v", n, err)
	}
	var got []byte
	var read func()
	read = func() {
		buf := make([]byte, 700)
		n, _ := s.Read(buf)
		got = append(got, buf[:n]...)
		p.sched.After(20*time.Millisecond, "read", read)
	}
	p.sched.After(2*time.Second, "read", read)
	persisted := false
	p.runUntil(t, func() bool {
		inFlight := c.sndNxt != c.sndUna
		switch {
		case inFlight && (c.timerKind != timerRexmt || !c.timer.Pending()):
			t.Fatalf("at %v: %d bytes in flight, slot kind %d", p.sched.Now(), c.sndNxt.Diff(c.sndUna), c.timerKind)
		case c.timerKind == timerPersist:
			persisted = persisted || p.sched.Now() > time.Second
		}
		return len(got) == len(data)
	}, 120*time.Second)
	if !persisted || !bytes.Equal(got, data) {
		t.Fatalf("persist armed during the stall: %v; stream intact: %v", persisted, bytes.Equal(got, data))
	}
}

// TestTimerSlotKeepsTimeWait: the client's ACK of the server's FIN is lost,
// so the FIN comes again in TIME-WAIT and restarts 2 MSL; a stale ACK
// after it runs the window-update path, whose persist stop must not
// disarm the slot. OnClose fires once, as the first FIN puts the client in
// TIME-WAIT; the connection reaches CLOSED timeWait after the retransmitted
// FIN arrived.
func TestTimerSlotKeepsTimeWait(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	s.OnReadable(func() {
		if _, err := s.Read(make([]byte, 16)); err == io.EOF {
			s.Close()
		}
	})
	dropped := false
	p.dropToB = func([]byte) bool {
		drop := !dropped && c.State() == StateTimeWait
		dropped = dropped || drop
		return drop
	}
	var firstFin, lastFin time.Duration
	p.dropToA = func(seg []byte) bool {
		if RawFlags(seg).Has(FlagFIN) {
			lastFin = p.sched.Now() + p.delay
			firstFin = cmp.Or(firstFin, lastFin)
		}
		return false
	}
	closes, closedAt := 0, time.Duration(0)
	c.OnClose(func(error) { closes, closedAt = closes+1, p.sched.Now() })
	c.Close()
	p.runUntil(t, func() bool { return s.State() == StateClosed }, 5*time.Second)
	if closes != 1 || closedAt != firstFin {
		t.Fatalf("OnClose fired %d times, the first at %v; want once, at TIME-WAIT entry %v", closes, closedAt, firstFin)
	}
	if !dropped || c.State() != StateTimeWait || c.timer.When() != lastFin+timeWait {
		t.Fatalf("after the second FIN: dropped %v, %v, 2 MSL ends at %v, want %v", dropped, c.State(), c.timer.When(), lastFin+timeWait)
	}
	stale := Marshal(p.bAddr, p.aAddr, &Segment{SrcPort: 80, DstPort: c.tuple.LocalPort,
		Seq: c.rcvNxt, Ack: c.sndUna.Add(-1), Flags: FlagACK, Window: 4096})
	SealChecksum(p.bAddr, p.aAddr, stale)
	p.a.Input(p.bAddr, p.aAddr, stale)
	if c.timerKind != timerTimeWait || c.timer.When() != lastFin+timeWait {
		t.Fatalf("a stale ACK left slot kind %d ending at %v, want TIME-WAIT at %v", c.timerKind, c.timer.When(), lastFin+timeWait)
	}
	p.runUntil(t, func() bool { return c.State() == StateClosed }, timeWait)
	if now := p.sched.Now(); now != lastFin+timeWait || closes != 1 || len(p.a.Conns()) != 0 {
		t.Fatalf("CLOSED at %v with OnClose fired %d times and %d connections left, want at %v, once, none",
			now, closes, len(p.a.Conns()), lastFin+timeWait)
	}
}

func TestDelayedAckCoalesces(t *testing.T) {
	p := newPair(t, Config{DisableNagle: true})
	c, s := p.connect(t, 80)
	_ = s
	before := p.toACount
	// A single small segment: the ack should wait for the delayed-ack
	// timer rather than being sent immediately.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool { return s.rcvBuf.Ready() == 1 }, time.Second)
	ackedImmediately := p.toACount > before
	if ackedImmediately {
		t.Skip("segment carried PSH; immediate ack is the configured policy")
	}
	now := p.sched.Now()
	p.runUntil(t, func() bool { return p.toACount > before }, time.Second)
	if p.sched.Now()-now < 100*time.Millisecond {
		t.Errorf("ack arrived after %v, want delayed-ack timeout", p.sched.Now()-now)
	}
}

func TestPortsAndTuples(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	ct, st := c.Tuple(), s.Tuple()
	if ct.RemotePort != 80 || st.LocalPort != 80 {
		t.Errorf("ports: %v / %v", ct, st)
	}
	if ct.LocalPort != st.RemotePort {
		t.Errorf("ephemeral port mismatch: %v / %v", ct, st)
	}
	if ct.LocalAddr != p.aAddr || ct.RemoteAddr != p.bAddr {
		t.Errorf("client tuple addresses: %v", ct)
	}
}

func TestListenerRejectsDuplicatePort(t *testing.T) {
	p := newPair(t, Config{})
	if _, err := p.b.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.Listen(80, nil); err == nil {
		t.Error("duplicate listen succeeded")
	}
}

func TestListenerCloseStopsAccepting(t *testing.T) {
	p := newPair(t, Config{})
	l, err := p.b.Listen(80, func(*Conn) { t.Error("accepted after close") })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	c, err := p.a.Dial(p.bAddr, 80)
	if err != nil {
		t.Fatal(err)
	}
	refused := false
	c.OnClose(func(err error) { refused = err == ErrConnRefused })
	p.runUntil(t, func() bool { return refused }, time.Second)
}

func TestWriteAfterCloseFails(t *testing.T) {
	p := newPair(t, Config{})
	c, _ := p.connect(t, 80)
	c.Close()
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
}

// TestRTORollbackAckBeyondSndNxt reproduces the failover-adjacent bug where
// an acknowledgment arriving after an RTO rollback covers data beyond the
// rolled-back sndNxt; it must be accepted (snd_max semantics), not treated
// as an ack of unsent data.
func TestRTORollbackAckBeyondSndNxt(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	var got int
	buf := make([]byte, 65536)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			got += n
		}
	})
	// Drop every ACK from the server for a while so the client RTOs and
	// rolls back, while the server actually has the data.
	blocked := true
	p.dropToA = func(seg []byte) bool { return blocked && len(RawPayload(seg)) == 0 }
	p.sched.After(700*time.Millisecond, "unblock", func() { blocked = false })

	data := make([]byte, 8000)
	if _, err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool { return got == len(data) && c.sndBuf.Ready() == 0 }, 30*time.Second)
}

// TestDialEphemeralPortExhaustion: once every ephemeral port to a
// destination is in use, Dial must fail with ErrPortInUse rather than
// silently inserting a duplicate tuple (whose segments would demultiplex to
// the older connection and wedge both handshakes).
func TestDialEphemeralPortExhaustion(t *testing.T) {
	p := newPair(t, Config{})
	const ephemeralPorts = 65536 - 49152
	for i := 0; i < ephemeralPorts; i++ {
		if _, err := p.a.Dial(p.bAddr, 80); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if _, err := p.a.Dial(p.bAddr, 80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("dial past port space: err = %v, want ErrPortInUse", err)
	}
	// A different destination has its own tuple space.
	if _, err := p.a.Dial(p.bAddr, 81); err != nil {
		t.Fatalf("dial to a fresh destination port: %v", err)
	}
}

// TestConnCloseErr: however a connection ends, Err, Read, Write and the
// OnClose argument report the same sentinel — the Conn keeps a one-byte
// close code, not the error — and OnClose fires exactly once: in TIME-WAIT
// for the side that closed cleanly first, else in CLOSED. Close and Abort
// after it change nothing, in TIME-WAIT no RST included.
func TestConnCloseErr(t *testing.T) {
	for _, row := range []struct {
		name string
		cfg  Config
		want error
		eof  bool // the peer's FIN arrived first: Read reports io.EOF
		// end starts the ending and returns the connection it ends, after
		// handing it to watch.
		end func(t *testing.T, p *pair, watch func(*Conn)) *Conn
	}{
		{"clean close", Config{}, nil, true,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				c, s := p.connect(t, 80)
				watch(c)
				s.OnReadable(func() {
					if _, err := s.Read(make([]byte, 1)); err == io.EOF {
						s.Close()
					}
				})
				c.Close()
				return c
			}},
		{"abort", Config{}, ErrAborted, false,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				c, _ := p.connect(t, 80)
				watch(c)
				c.Abort()
				return c
			}},
		{"RTO exhaustion", Config{}, ErrTimeout, false,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				c, _ := p.connect(t, 80)
				watch(c)
				p.dropToB = func([]byte) bool { return true }
				if _, err := c.Write([]byte("never acknowledged")); err != nil {
					t.Fatal(err)
				}
				return c
			}},
		{"RST in SYN-SENT", Config{}, ErrConnRefused, false,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				c, err := p.a.Dial(p.bAddr, 9999) // nobody listens
				if err != nil {
					t.Fatal(err)
				}
				watch(c)
				return c
			}},
		{"RST in SYN-RECEIVED", Config{}, ErrConnRefused, false,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				if _, err := p.b.Listen(80, func(*Conn) { t.Error("an embryo was accepted") }); err != nil {
					t.Fatal(err)
				}
				// The handshake's last ACK never arrives; the client's RST does.
				p.dropToB = func(seg []byte) bool { return !RawFlags(seg).Has(FlagRST) && !RawFlags(seg).Has(FlagSYN) }
				c, err := p.a.Dial(p.bAddr, 80)
				if err != nil {
					t.Fatal(err)
				}
				p.runUntil(t, func() bool { return c.State() == StateEstablished }, time.Second)
				s := p.b.findConn(Tuple{LocalAddr: p.bAddr, LocalPort: 80, RemoteAddr: p.aAddr, RemotePort: c.Tuple().LocalPort})
				if s == nil || s.State() != StateSynReceived {
					t.Fatalf("server end %v, want one in SYN-RECEIVED", s)
				}
				watch(s)
				c.Abort()
				return s
			}},
		{"RST when established", Config{}, ErrConnReset, false,
			func(t *testing.T, p *pair, watch func(*Conn)) *Conn {
				c, s := p.connect(t, 80)
				watch(s)
				c.Abort()
				return s
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := newPair(t, row.cfg)
			closes, onClose := 0, error(nil)
			c := row.end(t, p, func(c *Conn) {
				c.OnClose(func(err error) { closes, onClose = closes+1, err })
			})
			p.runUntil(t, func() bool { return closes > 0 }, 6*time.Minute) // RTO exhaustion: 342.2 s
			wantAt := StateClosed
			if row.want == nil {
				wantAt = StateTimeWait
			}
			sent := p.toACount + p.toBCount
			c.Close()
			c.Abort()
			if c.State() != wantAt || c.Err() != row.want || p.toACount+p.toBCount != sent {
				t.Fatalf("after OnClose, Close and Abort: %v, Err %v, %d segments sent; want %v, %v, none",
					c.State(), c.Err(), p.toACount+p.toBCount-sent, wantAt, row.want)
			}
			// Letting every pending timer fire must not call OnClose again.
			for p.sched.Step() {
			}
			if closes != 1 || c.State() != StateClosed {
				t.Fatalf("OnClose fired %d times, state %v; want once, CLOSED", closes, c.State())
			}
			wantRead, wantWrite := row.want, row.want
			if row.eof {
				wantRead = io.EOF
			}
			if wantWrite == nil {
				wantWrite = ErrClosed
			}
			_, readErr := c.Read(make([]byte, 1))
			_, writeErr := c.Write([]byte{1})
			if onClose != row.want || c.Err() != row.want || readErr != wantRead || writeErr != wantWrite {
				t.Errorf("OnClose %v, Err %v, Read %v, Write %v; want %v, %v, %v, %v",
					onClose, c.Err(), readErr, writeErr, row.want, row.want, wantRead, wantWrite)
			}
		})
	}
}

// TestConfigOutOfRangePanics: a Conn keeps sizes and windows as int32, so a
// stack refuses a Config it could not hold.
func TestConfigOutOfRangePanics(t *testing.T) {
	for _, cfg := range []Config{{MSS: 65536}, {SendBufSize: 1<<30 + 1}, {RecvBufSize: 1<<30 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MSS %d, buffers %d/%d accepted", cfg.MSS, cfg.SendBufSize, cfg.RecvBufSize)
				}
			}()
			cfg.withDefaults()
		}()
	}
	Config{MSS: 65535, SendBufSize: 1 << 30, RecvBufSize: 1 << 30}.withDefaults() // the largest it holds
}

// TestCwndCappedOnLongStream: without window scaling no peer advertises
// more than 65 535 bytes, so cwnd stops there (maxCwnd) and fits the
// Conn's int32; a long loss-free stream, which would otherwise grow it
// every round trip, stays capped and arrives byte for byte.
func TestCwndCappedOnLongStream(t *testing.T) {
	p := newPair(t, Config{})
	c, s := p.connect(t, 80)
	const total = 4 << 20
	pattern := func(i int) byte { return byte(i*7 + i>>9) }
	written, received, bad := 0, 0, -1
	buf, out := make([]byte, 8192), make([]byte, 8192)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			for i, b := range buf[:n] {
				if bad < 0 && b != pattern(received+i) {
					bad = received + i
				}
			}
			received += n
		}
	})
	fill := func() {
		for written < total {
			chunk := out[:min(len(out), total-written, c.SendFree())]
			if len(chunk) == 0 {
				return
			}
			for i := range chunk {
				chunk[i] = pattern(written + i)
			}
			n, err := c.Write(chunk)
			if err != nil {
				t.Fatal(err)
			}
			written += n
		}
	}
	c.OnWritable(fill)
	fill()
	peak := int32(0)
	p.runUntil(t, func() bool {
		peak = max(peak, c.cwnd)
		return received == total
	}, time.Minute)
	if peak > maxCwnd || peak < maxCwnd-c.mss {
		t.Errorf("cwnd peaked at %d, want it to reach and hold at most %d", peak, maxCwnd)
	}
	if rtx := p.a.Stats().Retransmissions; bad >= 0 || rtx != 0 {
		t.Errorf("first wrong byte at %d, %d retransmissions; want none", bad, rtx)
	}
}
