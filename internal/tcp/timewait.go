package tcp

import (
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// timeWaitRecord is what a connection lingers as for 2 MSL once it has entered
// TIME-WAIT: the stack swaps the Conn in its demux for this record, which
// keeps only what an answer needs and holds no pointer to the Conn, so the
// Conn is garbage once the application lets go of it. Everything the Conn
// sent has been acknowledged and nothing more is received, so snd.nxt,
// rcv.nxt and the receive window are fixed for the linger. 64 bytes, the
// 64-byte size class.
type timeWaitRecord struct {
	stack  *Stack
	alias  *timeWaitRecord // next record sharing tuple.key() in the stack's demux
	timer  sim.Timer       // 2 MSL
	tuple  Tuple
	sndNxt Seq
	rcvNxt Seq
	rcvWnd int32 // the receive window at entry; an ACK advertises it, capped at 65 535
}

func (w *timeWaitRecord) Tuple() Tuple                { return w.tuple }
func (w *timeWaitRecord) aliasLink() **timeWaitRecord { return &w.alias }

// linger swaps c for a TIME-WAIT record in the demux and starts its 2 MSL.
func (s *Stack) linger(c *Conn) *timeWaitRecord {
	w := &timeWaitRecord{stack: s, tuple: c.tuple, sndNxt: c.sndNxt, rcvNxt: c.rcvNxt, rcvWnd: int32(c.rcvFree())}
	if c.rcvBuf.Ready() > 0 {
		if s.unread == nil {
			s.unread = map[*timeWaitRecord]*ByteRing{}
		}
		s.unread[w] = &c.rcvBuf
	}
	s.conns.remove(c)
	s.timeWaits.insert(w)
	w.restart()
	return w
}

// restart (re)arms 2 MSL.
func (w *timeWaitRecord) restart() {
	w.timer.Stop()
	w.timer = w.stack.sched.AfterArg(timeWait, "tcp.timewait", timeWaitExpired, w)
}

// timeWaitExpired is the 2-MSL timer's callback, scheduled like connTimer.
func timeWaitExpired(v any) { v.(*timeWaitRecord).end() }

// end stops the timer, if it has not fired, and forgets the tuple.
func (w *timeWaitRecord) end() {
	w.timer.Stop()
	w.stack.timeWaits.remove(w)
	delete(w.stack.unread, w)
}

// input answers a segment for the tuple as the Conn in TIME-WAIT did
// (RFC 793 section 3.9, with Conn.input's window tests): an in-window RST
// ends the linger, an in-window SYN draws RST|ACK and ends it, an ACK of
// data never sent draws an ACK, and the rest goes to answer.
func (w *timeWaitRecord) input(seg *Segment) {
	s := w.stack
	if sp := s.spans; sp != nil && sp.TakeoverMarked() {
		sp.Mark(w.tuple.SpanKey(), obs.SpanFirstAfterTakeover, s.sched.Now())
	}
	switch {
	case seg.Flags.Has(FlagRST):
		if w.inWindow(seg.Seq) {
			w.end()
		}
	case seg.Flags.Has(FlagSYN) && seg.Seq.Geq(w.rcvNxt):
		if w.inWindow(seg.Seq) {
			w.send(FlagRST|FlagACK, 0)
			w.end()
		}
	case !seg.Flags.Has(FlagACK):
		// Dropped, as in every synchronized state.
	case seg.Ack.Greater(w.sndNxt):
		w.ack()
	default:
		w.answer(seg)
	}
}

// answer handles an acceptable ACK-bearing segment, from Conn.input's
// acceptability switch on: text the window cannot take, or an old
// duplicate, draws an ACK, and a duplicate FIN restarts 2 MSL. Text at
// rcv.nxt is ignored, and pure ACKs are not answered. The Conn hands the
// rest of the segment that entered TIME-WAIT from CLOSING here.
func (w *timeWaitRecord) answer(seg *Segment) {
	n := seg.Len()
	switch {
	case seg.Seq.Greater(w.rcvNxt) && !seg.Seq.InWindow(w.rcvNxt, int(w.rcvWnd)):
		if n > 0 {
			w.ack()
		}
	case seg.Seq != w.rcvNxt && n > 0 && seg.Seq.Add(n).Leq(w.rcvNxt):
		w.ack()
		if seg.Flags.Has(FlagFIN) {
			w.restart()
		}
	}
}

// inWindow is Conn.strictSeqOK over the record's fixed window.
func (w *timeWaitRecord) inWindow(seq Seq) bool {
	return seq == w.rcvNxt || seq.InWindow(w.rcvNxt, int(w.rcvWnd))
}

func (w *timeWaitRecord) ack() { w.send(FlagACK, uint16(min(w.rcvWnd, 65535))) }

func (w *timeWaitRecord) send(flags Flags, window uint16) {
	w.stack.emit(w.tuple, &Segment{Seq: w.sndNxt, Ack: w.rcvNxt, Flags: flags, Window: window})
}
