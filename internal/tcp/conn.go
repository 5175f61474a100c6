package tcp

import (
	"io"
	"time"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/sim"
)

// Conn is one TCP connection endpoint. The API is event-driven and
// non-blocking: Read and Write transfer whatever the buffers allow, and the
// OnReadable / OnWritable / OnEstablished / OnClose callbacks signal
// progress. All methods must be called from the simulation event loop.
type Conn struct {
	stack *Stack
	tuple Tuple
	state State
	// The flags and the timer slot's kind share state's word; spread among
	// wider fields, their padding put Conn in the 480-byte size class.
	finQueued      bool
	finSent        bool
	remoteFinValid bool
	peerFinRcvd    bool
	fastRecovery   bool
	ackNowFlag     bool
	timing         bool      // an RTT measurement is in progress
	closeCode      uint8     // how the connection ended, an index into closeErrs; zero while it lives
	timerKind      uint8     // which of timerRexmt and timerPersist holds timer
	listener       *Listener // non-nil for passively opened connections
	alias          *Conn     // next connection sharing tuple.key() in the stack's demux

	// Send sequence variables (RFC 793 3.2).
	iss       Seq
	sndUna    Seq
	sndNxt    Seq
	sndMaxSeq Seq   // highest sequence number ever sent (BSD's snd_max)
	sndWnd    int32 // TCP's quantities are int32: windows and the MSS fit 16 bits (no window scaling), buffers 30 (withDefaults)
	maxSndWnd int32 // largest window the peer has advertised
	sndWl1    Seq
	sndWl2    Seq
	sndBuf    ByteRing // unacknowledged and unsent data; capacity Config.SendBufSize
	finSeq    Seq

	// Receive sequence variables.
	rcvNxt       Seq
	rcvBuf       ByteRing // unread data up to rcvNxt, and what arrived beyond a gap; capacity Config.RecvBufSize
	remoteFinSeq Seq
	timedSeq     Seq // the timed segment ends here: an ack at or past it is the RTT sample

	// Congestion control (Reno).
	mss      int32
	cwnd     int32 // at most maxCwnd
	ssthresh int32
	dupAcks  int32

	// Acknowledgment strategy.
	ackPendingSegs int32
	lastWndSent    int32

	// RTT measurement (one segment timed at a time; Karn's rule).
	rto     rttEstimator
	timedAt time.Duration

	// Timers. Retransmit and persist share a slot (4.4BSD): retransmit
	// replaces persist, and only the holder disarms it. TIME-WAIT's 2 MSL is
	// the stack's record's (timeWaitRecord).
	timer        sim.Timer
	delackTimer  sim.Timer
	rtxCount     int32
	persistCount int32

	// Callbacks.
	onEstablished func()
	onReadable    func()
	onWritable    func()
	onClose       func(error)
}

// The ways a connection ends, as Conn.closeCode holds them. destroy and
// enterTimeWait are only ever handed one of these, so a byte replaces an
// error interface.
const (
	closeClean   uint8 = iota + 1 // FIN exchange, TIME-WAIT entry, a RST while closing, Close before the SYN-ACK
	closeAborted                  // Abort
	closeTimeout                  // retransmission limit
	closeRefused                  // RST in SYN-SENT or SYN-RECEIVED
	closeReset                    // RST or in-window SYN on a synchronized connection
)

// closeErrs is the error Err, Read, Write and OnClose report for each close
// code; the open connection's zero and a clean close read nil.
var closeErrs = [...]error{
	closeAborted: ErrAborted,
	closeTimeout: ErrTimeout,
	closeRefused: ErrConnRefused,
	closeReset:   ErrConnReset,
}

func (s *Stack) newConn(t Tuple) *Conn {
	c := &Conn{
		stack:       s,
		tuple:       t,
		state:       StateClosed,
		iss:         s.cfg.ISS(s.rng),
		mss:         int32(s.cfg.MSS),
		ssthresh:    65535,
		rto:         rttEstimator{rto: initialRTO},
		lastWndSent: int32(s.cfg.RecvBufSize),
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMaxSeq = c.iss
	c.sndBuf.Reset(c.iss.Add(1))
	c.cwnd = initialCwndSegs * c.mss
	return c
}

// --- public accessors -----------------------------------------------------

// Tuple returns the connection four-tuple.
func (c *Conn) Tuple() Tuple { return c.tuple }

// State returns the current connection state. From OnClose on, a
// connection that ended by entering TIME-WAIT reads TIME-WAIT for good: the
// stack holds the linger in a record of its own, and this handle is no
// longer part of it.
func (c *Conn) State() State { return c.state }

// Err returns the terminal error, if the connection has failed.
func (c *Conn) Err() error { return closeErrs[c.closeCode] }

// MSS returns the effective maximum segment size.
func (c *Conn) MSS() int { return int(c.mss) }

// OnEstablished sets the callback fired when the connection reaches
// ESTABLISHED.
func (c *Conn) OnEstablished(f func()) { c.onEstablished = f }

// OnReadable sets the callback fired when new data (or EOF) is available.
func (c *Conn) OnReadable(f func()) { c.onReadable = f }

// OnWritable sets the callback fired when send-buffer space frees up.
func (c *Conn) OnWritable(f func()) { c.onWritable = f }

// OnClose sets the callback fired exactly once when the connection ends
// for the application: on entering TIME-WAIT, once the ACK that completes
// the close is out, or else on reaching CLOSED. err is nil for a clean
// close. After it the connection holds no callback, and Close and Abort
// change nothing. From TIME-WAIT the stack lingers 2 MSL in a small record
// that does not reach the Conn, so a handle the application drops is
// garbage at once.
func (c *Conn) OnClose(f func(error)) { c.onClose = f }

// SendFree returns the send-buffer space available to Write.
func (c *Conn) SendFree() int { return c.stack.cfg.SendBufSize - c.sndBuf.Ready() }

// rcvFree returns the receive window: the configured capacity less the
// in-order bytes the application has not read. Bytes held beyond a gap lie
// inside the window and do not shrink it.
func (c *Conn) rcvFree() int { return c.stack.cfg.RecvBufSize - c.rcvBuf.Ready() }

// buffer inserts p into ring r at seq, bounded by the ring's configured
// capacity, and returns how many bytes it accepted. tcp_ring_grows_total
// counts every take from the byte store, a ring's first and a re-take after
// parking included.
func (c *Conn) buffer(r *ByteRing, seq Seq, p []byte, capacity int) int {
	held := r.Cap()
	n := len(p) - r.Insert(seq, p, capacity)
	if r.Cap() != held {
		c.stack.m.ringGrows.Inc()
	}
	return n
}

// Scratch returns an n-byte buffer owned by the connection's event loop
// (sim.Scheduler.Scratch), shared by every connection of every stack on it:
// applications read into it and stage writes in it instead of holding a
// buffer per connection. One callback runs at a time, so the sharing is
// race-free, but any Write, or any callback into other application code,
// may reuse the buffer: its contents are valid only until the next one.
// Under netbuf.SetPoison it is handed out full of the poison byte, so bytes
// relied on across such a call read as a mismatch.
func (c *Conn) Scratch(n int) []byte {
	b := c.stack.sched.Scratch(n)
	netbuf.Poison(b)
	return b
}

// --- application API -------------------------------------------------------

// Write copies up to len(p) bytes into the send buffer and starts
// transmission. It returns the number of bytes accepted; zero means the
// buffer is full (wait for OnWritable).
func (c *Conn) Write(p []byte) (int, error) {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynReceived:
	default:
		if err := c.Err(); err != nil {
			return 0, err
		}
		return 0, ErrClosed
	}
	if c.finQueued {
		return 0, ErrClosed
	}
	n := c.buffer(&c.sndBuf, c.sndBuf.End(), p, c.stack.cfg.SendBufSize)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
	return n, nil
}

// Read copies buffered data into p. It returns (0, nil) when no data is
// available yet and (0, io.EOF) after the peer's FIN has been consumed.
func (c *Conn) Read(p []byte) (int, error) {
	n := c.rcvBuf.CopyAt(0, p)
	if n > 0 {
		c.rcvBuf.Advance(n)
		if c.rcvBuf.Len() == 0 {
			c.rcvBuf.Release() // drained: park the storage until the next segment
		}
		c.maybeSendWindowUpdate()
		return n, nil
	}
	if c.peerFinRcvd {
		return 0, io.EOF
	}
	return 0, c.Err()
}

// Close closes the sending direction after all buffered data drains (a
// half-close; the peer may keep sending). The connection terminates fully
// once both directions are closed. After OnClose it does nothing.
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	switch c.state {
	case StateSynSent:
		c.destroy(closeClean)
		return
	case StateSynReceived, StateEstablished:
		c.finQueued = true
		c.state = StateFinWait1
		c.trySend()
	case StateCloseWait:
		c.finQueued = true
		c.state = StateLastAck
		c.trySend()
	default:
		// Already closing or closed.
	}
}

// Abort resets the connection immediately, notifying the peer with RST.
// After OnClose it does nothing: from TIME-WAIT no RST goes out (nor does
// RFC 793's ABORT send one there), and the stack's record finishes 2 MSL.
func (c *Conn) Abort() {
	if c.closeCode != 0 {
		return
	}
	if c.state != StateSynSent {
		c.emit(&Segment{Flags: FlagRST | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	}
	c.destroy(closeAborted)
}

// --- segment transmission ---------------------------------------------------

// emit sends a control segment (Stack.emit).
func (c *Conn) emit(seg *Segment) { c.stack.emit(c.tuple, seg) }

// emitData marshals seg plus n bytes of send-buffer data starting off bytes
// above its floor. The payload is copied directly into the pooled packet buffer:
// the steady-state send path writes each byte once and allocates nothing.
func (c *Conn) emitData(seg *Segment, off, n int) {
	seg.SrcPort = c.tuple.LocalPort
	seg.DstPort = c.tuple.RemotePort
	pkt := netbuf.Get()
	c.sndBuf.CopyAt(off, MarshalReserve(pkt, seg, n))
	c.stack.m.segmentsOut.Inc()
	_ = c.stack.output(c.tuple.LocalAddr, c.tuple.RemoteAddr, pkt)
}

// setSndWnd records a peer window advertisement, tracking the maximum for
// the silly-window-avoidance threshold.
func (c *Conn) setSndWnd(w uint16) {
	c.sndWnd = int32(w)
	c.maxSndWnd = max(c.maxSndWnd, c.sndWnd)
}

func (c *Conn) advertisedWindow() uint16 {
	w := c.rcvFree()
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

func (c *Conn) sendSYN(withAck bool) {
	seg := &Segment{
		Seq:     c.iss,
		Flags:   FlagSYN,
		Window:  c.advertisedWindow(),
		Options: []Option{MSSOption(uint16(c.stack.cfg.MSS))},
	}
	if withAck {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	c.sndNxt = c.iss.Add(1)
	c.sndMaxSeq = MaxSeq(c.sndMaxSeq, c.sndNxt)
	c.emit(seg)
	c.armRexmt()
	if !c.timing {
		c.timing = true
		c.timedSeq = c.sndNxt
		c.timedAt = c.stack.sched.Now()
	}
}

// trySend transmits as much pending data (and a queued FIN) as the send
// window, congestion window, and MSS permit. It returns the number of
// segments emitted.
func (c *Conn) trySend() int {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck:
	default:
		return 0
	}
	sent, mss := 0, int(c.mss)
	for {
		dataEnd := c.sndBuf.End()
		if c.finSent && c.sndNxt.Greater(c.finSeq) {
			break // everything through the FIN has been (re)sent
		}
		unsent := dataEnd.Diff(c.sndNxt)
		if unsent < 0 {
			unsent = 0
		}
		inFlight := c.sndNxt.Diff(c.sndUna)
		avail := max(int(min(c.sndWnd, c.cwnd))-inFlight, 0)
		n := min(unsent, mss, avail)
		// The FIN rides the segment that drains the buffer; after an RTO
		// rollback it is re-sent when sndNxt reaches its position again.
		sendFin := c.finQueued && n == unsent &&
			(!c.finSent || c.sndNxt.Add(n) == c.finSeq)
		if n <= 0 && !(sendFin && unsent == 0) {
			break
		}
		// Sender-side silly-window avoidance (RFC 1122 4.2.3.4): send a
		// sub-MSS, sub-buffer segment only when it covers at least half
		// the peer's largest-ever window; otherwise hold until the window
		// opens (the persist machinery overrides a permanent hold).
		if n < mss && n < unsent && n < max(int(c.maxSndWnd/2), 1) {
			break
		}
		// Nagle: hold small segments while data is in flight.
		if n > 0 && n < mss && inFlight > 0 && !sendFin &&
			!c.stack.cfg.DisableNagle && n == unsent {
			break
		}
		// Zero-window: let the persist timer probe.
		if n == 0 && sendFin && avail == 0 && inFlight > 0 {
			break
		}
		seg := &Segment{
			Seq:    c.sndNxt,
			Ack:    c.rcvNxt,
			Flags:  FlagACK,
			Window: c.advertisedWindow(),
		}
		off := c.sndNxt.Diff(c.sndBuf.Floor())
		if n > 0 {
			// PSH marks the end of a burst: either the buffer drains, or
			// Nagle is about to hold a sub-MSS remainder until this segment
			// is acknowledged — the receiver should acknowledge promptly.
			if n == unsent || (unsent-n < mss && !c.stack.cfg.DisableNagle) {
				seg.Flags |= FlagPSH
			}
		}
		c.sndNxt = c.sndNxt.Add(n)
		segLen := n
		if sendFin {
			seg.Flags |= FlagFIN
			segLen++
			if !c.finSent {
				c.finSent = true
				c.finSeq = c.sndNxt
			}
			c.sndNxt = c.finSeq.Add(1)
		}
		c.sndMaxSeq = MaxSeq(c.sndMaxSeq, c.sndNxt)
		c.emitData(seg, off, n)
		sent++
		c.clearAckPending()
		if !c.timing && segLen > 0 {
			c.timing = true
			c.timedSeq = c.sndNxt
			c.timedAt = c.stack.sched.Now()
		}
		if segLen > 0 {
			c.armRexmt()
		}
	}
	c.maybeArmPersist()
	return sent
}

func (c *Conn) sendAck() {
	seg := &Segment{
		Seq:    c.sndNxt,
		Ack:    c.rcvNxt,
		Flags:  FlagACK,
		Window: c.advertisedWindow(),
	}
	c.emit(seg)
	c.clearAckPending()
}

func (c *Conn) clearAckPending() {
	c.ackPendingSegs = 0
	c.ackNowFlag = false
	c.delackTimer.Stop()
	c.delackTimer = sim.Timer{}
	c.lastWndSent = int32(c.rcvFree())
}

// flushOutput runs at the end of input processing: it piggybacks pending
// acknowledgments on data if possible, otherwise emits or schedules a pure
// ACK.
func (c *Conn) flushOutput() {
	sent := c.trySend()
	if sent > 0 {
		return
	}
	if c.ackNowFlag || c.ackPendingSegs >= ackEveryN {
		c.sendAck()
		return
	}
	if c.ackPendingSegs > 0 && !c.delackTimer.Pending() {
		c.delackTimer = c.stack.sched.AfterArg(c.stack.cfg.DelayedAckTimeout, "tcp.delack", connDelack, c)
	}
}

// maybeSendWindowUpdate advertises newly freed receive buffer after the
// application reads, mimicking the "window update" segments real stacks
// send to restart a stalled sender.
func (c *Conn) maybeSendWindowUpdate() {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	if c.rcvFree()-int(c.lastWndSent) >= min(2*int(c.mss), c.stack.cfg.RecvBufSize/2) {
		c.sendAck()
	}
}

// --- timers ------------------------------------------------------------------

// The kinds of timer Conn.timer holds.
const (
	timerRexmt uint8 = iota + 1
	timerPersist
)

// connTimer and connDelack are scheduled via AfterArg with the connection as
// the argument: a top-level function plus a pointer argument schedules
// without allocating, unlike a closure or method value, which matters
// because the retransmission timer is re-armed for every data segment sent
// (and saves one allocation per closed connection).
func connTimer(v any) {
	c := v.(*Conn)
	kind := c.timerKind
	c.timer, c.timerKind = sim.Timer{}, 0
	switch kind {
	case timerRexmt:
		c.onRexmtTimeout()
	case timerPersist:
		c.onPersistTimeout()
	}
}

func connDelack(v any) {
	c := v.(*Conn)
	c.delackTimer = sim.Timer{}
	if c.state != StateClosed {
		c.sendAck()
	}
}

// setTimer arms the slot as kind to fire after d, stopping whatever held it.
func (c *Conn) setTimer(kind uint8, d time.Duration, name string) {
	c.timer.Stop()
	c.timer, c.timerKind = c.stack.sched.AfterArg(d, name, connTimer, c), kind
}

// stopTimer disarms the slot if kind holds it.
func (c *Conn) stopTimer(kind uint8) {
	if c.timerKind == kind {
		c.timer.Stop()
		c.timer, c.timerKind = sim.Timer{}, 0
	}
}

func (c *Conn) armRexmt() { c.setTimer(timerRexmt, c.rto.RTO(), "tcp.rexmt") }

func (c *Conn) stopRexmt() {
	c.stopTimer(timerRexmt)
	c.rtxCount = 0
}

func (c *Conn) onRexmtTimeout() {
	if c.state == StateClosed {
		return
	}
	if c.sndUna == c.sndMaxSeq && c.state != StateSynSent && c.state != StateSynReceived {
		return // stale timer: everything sent has been acknowledged
	}
	c.rtxCount++
	if c.rtxCount > maxRetries {
		c.destroy(closeTimeout)
		return
	}
	c.stack.m.retransmissions.Inc()
	c.stack.spans.Retransmit(c.tuple.SpanKey())
	c.rto.backoff()
	c.timing = false // Karn: do not time retransmitted segments
	c.dupAcks = 0
	c.fastRecovery = false
	flight := c.sndNxt.Diff(c.sndUna)
	c.ssthresh = int32(max(flight/2, 2*int(c.mss)))
	c.cwnd = c.mss
	switch c.state {
	case StateSynSent:
		c.sendSYN(false)
		return
	case StateSynReceived:
		c.sendSYN(true)
		return
	}
	// Roll back and resend from the left window edge (snd_max keeps the
	// high-water mark so later acknowledgments remain recognizable).
	c.sndNxt = c.sndUna
	if c.trySend() == 0 && c.sndUna != c.sndMaxSeq {
		// The peer's window (possibly zero) blocks regular transmission,
		// but unacknowledged data exists: force the front segment out as a
		// probe. The receiver trims it to its window yet must process the
		// acknowledgment, which is what breaks zero-window gridlocks after
		// a failover gap.
		c.retransmitOne()
	}
	c.armRexmt()
}

// maybeArmPersist arms the persist timer whenever data is pending but
// nothing is in flight and trySend declined to transmit — a zero window or
// a silly-window hold. The probe doubles as BSD's SWS override.
func (c *Conn) maybeArmPersist() {
	unsent := c.sndBuf.End().Diff(c.sndNxt)
	if unsent > 0 && c.sndNxt == c.sndUna && !c.timer.Pending() {
		c.persistCount = 0
		c.stack.m.zeroWindowStalls.Inc()
		c.stack.spans.ZeroWindow(c.tuple.SpanKey())
		c.armPersist()
	}
}

func (c *Conn) armPersist() {
	c.setTimer(timerPersist, c.rto.RTO()*time.Duration(1<<min(c.persistCount, 6)), "tcp.persist")
}

func (c *Conn) onPersistTimeout() {
	if c.state == StateClosed {
		return
	}
	// If regular transmission has resumed, stand down.
	if c.trySend() > 0 || c.sndNxt != c.sndUna {
		return
	}
	// Window probe / SWS override: force out data starting at the
	// first unacknowledged byte — one byte into a zero window, or as
	// much as the sub-MSS window allows. The receiver trims it to its
	// window but must process the ACK field.
	off := c.sndUna.Diff(c.sndBuf.Floor())
	if off < 0 {
		off = 0
	}
	if off < c.sndBuf.Ready() {
		n := min(c.sndBuf.Ready()-off, int(c.mss), int(max(c.sndWnd, 1)))
		seg := &Segment{
			Seq:    c.sndUna,
			Ack:    c.rcvNxt,
			Flags:  FlagACK | FlagPSH,
			Window: c.advertisedWindow(),
		}
		c.sndNxt = MaxSeq(c.sndNxt, c.sndUna.Add(n))
		c.sndMaxSeq = MaxSeq(c.sndMaxSeq, c.sndNxt)
		c.emitData(seg, off, n)
		c.armRexmt()
		return
	}
	c.persistCount++
	c.armPersist()
}

// enterTimeWait ends the connection cleanly and hands the linger to the
// stack: a TIME-WAIT record takes the Conn's place in the demux and starts
// 2 MSL. The ACK that completes the close goes out from the Conn, OnClose
// fires, and the Conn lets go of every callback; once the input that entered
// returns, only the application's handle reaches it. A receive window the
// application opens after this is not advertised: the record keeps the one
// at entry. It returns the record, which answers the rest of a segment that
// entered from CLOSING.
func (c *Conn) enterTimeWait() *timeWaitRecord {
	c.state = StateTimeWait
	c.closeCode = closeClean
	// Nothing more will be buffered: the receive ring gives back what it
	// holds beyond a gap now. The send ring parked when the ack of our FIN
	// drained it.
	c.releaseRcvBuf()
	c.timer.Stop()
	c.timer, c.timerKind = sim.Timer{}, 0
	w := c.stack.linger(c)
	onClose := c.onClose
	c.onEstablished, c.onReadable, c.onWritable, c.onClose = nil, nil, nil, nil
	if onClose != nil {
		c.flushOutput()
		onClose(nil)
	}
	return w
}

// destroy tears the connection down, ending it as code says, and fires
// OnClose. A connection that has ended, in TIME-WAIT too, stays as it is.
func (c *Conn) destroy(code uint8) {
	if c.closeCode != 0 {
		return
	}
	c.closeCode = code
	c.state = StateClosed
	c.timer.Stop()
	c.delackTimer.Stop()
	c.stack.conns.remove(c)
	// However the connection ended — RST, LAST-ACK, Abort, a timeout — its
	// rings go back to the store now rather than when the collector
	// finds them. Unsent bytes have nowhere to go; unread ones stay readable.
	c.sndBuf.Release()
	c.releaseRcvBuf()
	if c.onClose != nil {
		c.onClose(closeErrs[code])
	}
}

// releaseRcvBuf returns the receive ring's storage once the connection can
// take no more data, unless the application has yet to read what is in it.
// Bytes beyond a gap go with it: nothing will arrive to fill the gap.
func (c *Conn) releaseRcvBuf() {
	if c.rcvBuf.Ready() == 0 {
		c.rcvBuf.Release()
	}
}
