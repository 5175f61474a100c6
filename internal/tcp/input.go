package tcp

// Segment arrival processing (RFC 793 section 3.9, "SEGMENT ARRIVES").

import "tcpfailover/internal/obs"

func (c *Conn) input(seg *Segment) {
	if sp := c.stack.spans; sp != nil && sp.TakeoverMarked() {
		// First segment reaching this endpoint after the secondary's
		// takeover: the moment redirected traffic starts flowing again.
		// Pre-takeover the hook costs one predictable branch.
		sp.Mark(c.tuple.SpanKey(), obs.SpanFirstAfterTakeover, c.stack.sched.Now())
	}
	switch c.state {
	case StateClosed:
		return
	case StateSynSent:
		c.inputSynSent(seg)
		return
	}

	if seg.Flags.Has(FlagRST) {
		if !c.strictSeqOK(seg.Seq) {
			return // blind RST outside the window (RFC 5961 spirit)
		}
		switch c.state {
		case StateSynReceived:
			// Passive open returns to LISTEN: just drop the embryo.
			c.destroy(closeRefused)
		case StateLastAck, StateClosing:
			c.destroy(closeClean)
		default:
			c.destroy(closeReset)
		}
		return
	}

	if seg.Flags.Has(FlagSYN) && seg.Seq.Geq(c.rcvNxt) {
		if !c.strictSeqOK(seg.Seq) {
			// Past the window: a blind probe, not the peer restarting.
			return
		}
		// SYN in the window is an error; reset.
		rst := &Segment{Flags: FlagRST | FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt}
		c.emit(rst)
		c.destroy(closeReset)
		return
	}

	acceptable := c.segAcceptable(seg)
	if !seg.Flags.Has(FlagACK) {
		return
	}

	if c.state == StateSynReceived {
		if c.sndUna.Leq(seg.Ack) && seg.Ack.Leq(c.sndNxt) {
			c.state = StateEstablished
			c.setSndWnd(seg.Window)
			c.sndWl1 = seg.Seq
			c.sndWl2 = seg.Ack
			c.stopRexmt()
			if sp := c.stack.spans; sp != nil {
				sp.Mark(c.tuple.SpanKey(), obs.SpanEstablished, c.stack.sched.Now())
			}
			if c.listener != nil && c.listener.onAccept != nil {
				c.listener.onAccept(c)
			}
			if c.onEstablished != nil {
				c.onEstablished()
			}
		} else {
			c.stack.sendRST(c.tuple, seg)
			return
		}
	}

	// The acknowledgment and window fields are processed even for
	// sequence-unacceptable segments: after retransmission rollbacks or a
	// failover gap against a zero window, the peer's acknowledgments may
	// only ever arrive in such segments, and discarding them gridlocks the
	// connection (see segAcceptable).
	if !c.processAck(seg) {
		return
	}
	// Text, a SYN or a FIN that we cannot accept, or that ends at or before
	// rcvNxt (an old duplicate: the peer missed our ACK), draws an immediate
	// ACK in every synchronized state (RFC 793 p. 69, as BSD does), so the
	// peer resynchronizes; in TIME-WAIT (timeWaitRecord.answer) a FIN also
	// restarts 2 MSL. Pure ACKs are not answered: answering them is how two
	// desynchronized endpoints start an ACK war.
	switch {
	case !acceptable:
		if seg.Len() > 0 {
			c.sendAck()
		}
	case seg.Seq != c.rcvNxt && seg.Len() > 0 && seg.Seq.Add(seg.Len()).Leq(c.rcvNxt):
		c.ackNowFlag = true
	default:
		c.processPayload(seg)
		c.processFin(seg)
	}
	if c.state != StateClosed {
		c.flushOutput()
	}
}

func (c *Conn) inputSynSent(seg *Segment) {
	if seg.Flags.Has(FlagACK) {
		if seg.Ack.Leq(c.iss) || seg.Ack.Greater(c.sndNxt) {
			if !seg.Flags.Has(FlagRST) {
				c.stack.sendRST(c.tuple, seg)
			}
			return
		}
	}
	if seg.Flags.Has(FlagRST) {
		if seg.Flags.Has(FlagACK) {
			c.destroy(closeRefused)
		}
		return
	}
	if !seg.Flags.Has(FlagSYN) {
		return
	}
	c.setRcvNxt(seg.Seq.Add(1))
	if mss, ok := seg.MSS(); ok {
		c.mss = min(c.mss, int32(mss))
		c.cwnd = initialCwndSegs * c.mss
	}
	c.setSndWnd(seg.Window)
	c.sndWl1 = seg.Seq
	c.sndWl2 = seg.Ack
	if seg.Flags.Has(FlagACK) {
		c.sndUna = seg.Ack
		c.sampleRTT(seg.Ack)
	}
	if c.sndUna.Greater(c.iss) {
		c.state = StateEstablished
		if sp := c.stack.spans; sp != nil {
			sp.Mark(c.tuple.SpanKey(), obs.SpanEstablished, c.stack.sched.Now())
		}
		c.stopRexmt()
		c.sendAck()
		if c.onEstablished != nil {
			c.onEstablished()
		}
		c.processPayload(seg)
		c.processFin(seg)
		if c.state != StateClosed {
			c.flushOutput()
		}
		return
	}
	// Simultaneous open.
	c.state = StateSynReceived
	c.sendSYN(true)
}

// strictSeqOK is the acceptability test for connection-killing segments, RST
// and SYN, in the spirit of RFC 5961: exactly rcvNxt (the common case for a
// legitimate peer, and the only acceptable value against a closed window)
// or inside the receive window — not the half-space segAcceptable grants
// other segments, under which a blind off-path probe succeeds with
// probability ~1/2.
func (c *Conn) strictSeqOK(seq Seq) bool {
	return seq == c.rcvNxt || seq.InWindow(c.rcvNxt, c.rcvFree())
}

// segAcceptable implements the window acceptability test the way BSD
// stacks do rather than RFC 793's literal four cases: any segment that
// begins at or before rcvNxt is acceptable — the duplicate prefix is
// trimmed away, but the ACK and window fields are processed. Zero-window
// probes, in-order data arriving at a full buffer, and old-sequence pure
// ACKs (which appear after retransmission rollbacks) all carry
// acknowledgments that must not be discarded; a strict-RFC receiver pair
// can otherwise ACK-war or gridlock forever. Segments beginning beyond
// rcvNxt are accepted only if they overlap the receive window.
func (c *Conn) segAcceptable(seg *Segment) bool {
	if seg.Seq.Leq(c.rcvNxt) {
		return true
	}
	return seg.Seq.InWindow(c.rcvNxt, c.rcvFree())
}

// processAck handles the acknowledgment field; it reports whether segment
// processing should continue.
func (c *Conn) processAck(seg *Segment) bool {
	ack := seg.Ack
	if ack.Greater(c.sndMaxSeq) {
		// Ack for data never sent.
		c.sendAck()
		return false
	}
	if ack.Greater(c.sndUna) {
		c.handleNewAck(ack)
	} else if ack == c.sndUna && seg.Len() == 0 && int32(seg.Window) == c.sndWnd &&
		c.sndNxt != c.sndUna {
		c.handleDupAck()
	}

	// Window update (RFC 793 ordering rule).
	if c.sndWl1.Less(seg.Seq) || (c.sndWl1 == seg.Seq && c.sndWl2.Leq(ack)) {
		oldWnd := c.sndWnd
		c.setSndWnd(seg.Window)
		c.sndWl1 = seg.Seq
		c.sndWl2 = ack
		if c.sndWnd > 0 {
			c.stopTimer(timerPersist)
		}
		if c.sndWnd > oldWnd {
			c.trySend()
		}
	}

	finAcked := c.finSent && ack.Greater(c.finSeq)
	switch c.state {
	case StateFinWait1:
		if finAcked {
			c.state = StateFinWait2
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait().answer(seg)
			return false
		}
	case StateLastAck:
		if finAcked {
			c.destroy(closeClean)
			return false
		}
	}
	return true
}

func (c *Conn) handleNewAck(ack Seq) {
	acked := ack.Diff(c.sndUna)
	// SYN/FIN consume sequence space, not buffer.
	if consume := min(ack.Diff(c.sndBuf.Floor()), c.sndBuf.Ready()); consume > 0 {
		c.sndBuf.Advance(consume)
		if c.sndBuf.Ready() == 0 {
			c.sndBuf.Release() // drained: park the storage until the next Write
		}
	}
	c.sndUna = ack
	if c.sndNxt.Less(c.sndUna) {
		c.sndNxt = c.sndUna // an ack beyond a rolled-back sndNxt restores it
	}
	c.rtxCount = 0
	c.sampleRTT(ack)

	if c.fastRecovery {
		c.cwnd = c.ssthresh
		c.fastRecovery = false
	} else if c.cwnd < c.ssthresh {
		c.cwnd = min(c.cwnd+int32(min(acked, int(c.mss))), maxCwnd)
	} else {
		c.cwnd = min(c.cwnd+int32(max(int(c.mss)*int(c.mss)/int(c.cwnd), 1)), maxCwnd)
	}
	c.dupAcks = 0

	if c.sndUna == c.sndMaxSeq {
		c.stopRexmt()
	} else {
		c.armRexmt()
	}
	if c.onWritable != nil && c.SendFree() > 0 {
		c.onWritable()
	}
}

func (c *Conn) handleDupAck() {
	c.stack.m.dupAcks.Inc()
	c.dupAcks++
	switch {
	case c.dupAcks == 3:
		// Fast retransmit (Reno).
		c.stack.m.fastRetransmits.Inc()
		flight := c.sndNxt.Diff(c.sndUna)
		c.ssthresh = int32(max(flight/2, 2*int(c.mss)))
		c.retransmitOne()
		c.cwnd = min(c.ssthresh+3*c.mss, maxCwnd)
		c.fastRecovery = true
	case c.dupAcks > 3:
		c.cwnd = min(c.cwnd+c.mss, maxCwnd)
		c.trySend()
	}
}

// retransmitOne resends the segment at the left edge of the send window.
func (c *Conn) retransmitOne() {
	off := c.sndUna.Diff(c.sndBuf.Floor())
	n := min(int(c.mss), c.sndBuf.Ready()-off)
	seg := &Segment{
		Seq:    c.sndUna,
		Ack:    c.rcvNxt,
		Flags:  FlagACK,
		Window: c.advertisedWindow(),
	}
	if n > 0 {
		c.timing = false // Karn
		c.stack.m.retransmissions.Inc()
		c.stack.spans.Retransmit(c.tuple.SpanKey())
		c.emitData(seg, off, n)
		return
	}
	if c.finSent && c.finSeq == c.sndUna {
		seg.Flags |= FlagFIN
		c.timing = false // Karn
		c.stack.m.retransmissions.Inc()
		c.stack.spans.Retransmit(c.tuple.SpanKey())
		c.emit(seg)
	}
}

func (c *Conn) sampleRTT(ack Seq) {
	if c.timing && ack.Geq(c.timedSeq) {
		c.rto.sample(c.stack.sched.Now() - c.timedAt)
		c.timing = false
	}
}

// processPayload trims the segment text to the receive window and puts it in
// the receive buffer, where it extends the in-order run or waits beyond a gap.
func (c *Conn) processPayload(seg *Segment) {
	if len(seg.Payload) == 0 {
		return
	}
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return // text after CLOSE is ignored
	}
	payload := seg.Payload
	start := seg.Seq
	if seg.Flags.Has(FlagSYN) {
		start = start.Add(1)
	}
	// Trim the already-received prefix.
	if start.Less(c.rcvNxt) {
		skip := c.rcvNxt.Diff(start)
		if skip >= len(payload) {
			return // only the FIN is new (input answers a pure duplicate)
		}
		payload = payload[skip:]
		start = c.rcvNxt
	}
	// Trim to the window.
	limit := c.rcvNxt.Add(c.rcvFree())
	if start.Add(len(payload)).Greater(limit) {
		keep := limit.Diff(start)
		if keep <= 0 {
			c.ackNowFlag = true
			return
		}
		payload = payload[:keep]
	}

	c.buffer(&c.rcvBuf, start, payload, c.stack.cfg.RecvBufSize)
	if start == c.rcvNxt {
		c.rcvNxt = c.rcvBuf.End() // past whatever was waiting beyond the gap this filled
		c.ackPendingSegs++
		if seg.Flags.Has(FlagPSH) {
			// A pushed segment ends a burst; holding its acknowledgment
			// for the delayed-ack timer would stall Nagle-bound senders.
			c.ackNowFlag = true
		}
		if c.rcvBuf.Len() > c.rcvBuf.Ready() {
			c.ackNowFlag = true // still a gap: keep the duplicate ACKs coming
		}
		if sp := c.stack.spans; sp != nil {
			sp.Progress(c.tuple.SpanKey(), c.stack.sched.Now())
		}
		if c.onReadable != nil {
			c.onReadable()
		}
	} else {
		// Out of order: it waits in place; send an immediate duplicate ACK.
		c.ackNowFlag = true
	}
}

// processFin handles the FIN bit once all preceding data is in.
func (c *Conn) processFin(seg *Segment) {
	if seg.Flags.Has(FlagFIN) {
		fs := seg.Seq.Add(len(seg.Payload))
		if seg.Flags.Has(FlagSYN) {
			fs = fs.Add(1)
		}
		if !c.remoteFinValid || fs.Less(c.remoteFinSeq) {
			c.remoteFinSeq = fs
			c.remoteFinValid = true
		}
	}
	if !c.remoteFinValid || c.peerFinRcvd || c.remoteFinSeq != c.rcvNxt {
		return
	}
	switch c.state {
	case StateEstablished, StateSynReceived:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked (else we'd be in FIN-WAIT-2).
		c.state = StateClosing
	case StateFinWait2:
		defer c.enterTimeWait()
	default:
		return
	}
	c.rcvNxt = c.rcvNxt.Add(1)
	c.peerFinRcvd = true
	c.ackNowFlag = true
	if c.onReadable != nil {
		c.onReadable() // EOF is now observable
	}
}

// setRcvNxt records the first sequence number expected from the peer, learnt
// from its SYN, and starts the receive buffer there.
func (c *Conn) setRcvNxt(seq Seq) {
	c.rcvNxt = seq
	c.rcvBuf.Reset(seq)
}
