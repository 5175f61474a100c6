package core

import (
	"bytes"
	"slices"

	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// defaultMaxFlows is the connection cap a matcher's constructor handed zero
// selects: above every experiment's connection count (E13 holds a million),
// so only a flood of spoofed tuples reaches it. Past the cap the least
// recently touched entry is evicted and counted in
// bridge_flow_evictions_total; there is no unbounded setting.
const defaultMaxFlows = 1 << 20

// defaultMSS is assumed when a SYN carries no MSS option (RFC 1122).
const defaultMSS = 536

// PrimaryStats counts the primary bridge's work.
type PrimaryStats struct {
	SegmentsToClient         int64
	BytesMatched             int64
	RetransmissionsForwarded int64
	Divergences              int64 // connections reset because the replicas' bytes differed
	LateFinAcks              int64
	ConnsOpened              int64
	ConnsClosed              int64
	ConnsEvicted             int64 // LRU evictions under the flow cap
	SeqInvalidDrops          int64 // segments rejected by in-window validation
	MalformedDrops           int64 // frames with an inconsistent data offset or a forged orig-dst block
}

// seqHorizon is the validation window the bridge applies around its
// acknowledgment and release points: one maximum unscaled TCP window. A
// client RST tears bridge state down only within it of the combined
// acknowledgment, client data is answered or passed on only within it of
// the same point, and a diverted RST must land within it of the release
// point; anything else is dropped and counted in
// bridge_seq_invalid_drops_total. A blind off-path forger must land within
// it, which shrinks the per-probe success probability from certainty (the
// paper's bridge trusts the wire) to 2^16/2^32.
const seqHorizon = 65536

// queueSpan is how far past its floor an output queue holds bytes. TCP here
// has no window scaling, so a replica never sends further than 65 535 bytes
// past what the client acknowledged, which the floor has passed; the byte
// store's largest class covers that. A segment claiming more is forged, and
// is clipped rather than allowed to size an allocation.
const queueSpan = netbuf.MaxBytes

// replica is what the bridge keeps about one of the two TCP layers whose
// output it merges: the primary's own, and the secondary's as it arrives
// diverted. The paper's bridge is symmetric in the two — matched output
// queues, ack = min, win = min, one SYN combined from two — so a pconn holds
// the same record twice. The one asymmetry, Delta-seq, is applied on the way
// in (fromReplica): everything but iss is in the sequence spaces the client
// sees.
type replica struct {
	q      tcp.ByteRing // output queue (Figure 2), in the secondary's sequence space
	iss    tcp.Seq      // sequence number of its SYN, in its own space
	fin    tcp.Seq      // stream position of its FIN
	ack    tcp.Seq      // its latest acknowledgment of the client's stream
	mss    uint16       // MSS its SYN announced; defaultMSS if it carried none
	synWin uint16       // window its SYN announced
	win    uint16       // its latest window
	issSet bool
	finSet bool
	ackSet bool
}

// finAt reports whether the replica's stream ends exactly at seq.
func (r *replica) finAt(seq tcp.Seq) bool { return r.finSet && r.fin == seq }

// pconn is the primary bridge's per-connection state: the two replicas'
// records, the sequence-number offset between them, and the release and
// termination bookkeeping of sections 3, 7 and 8 of the paper.
//
// Records live by value in the bridge's slab, addressed by slot index, and
// hold no pointers to other records: the LRU links are slot indices, and
// the output queues are embedded rings, which hold no pointer at all while
// nothing is queued. At a million connections the garbage collector
// therefore sees one conns table and one slab — not a million pconns each
// dragging two queue objects (DESIGN.md §12).
type pconn struct {
	key             TupleKey
	self            int32 // own slot index in the bridge's slab
	serverInitiated bool

	p, s replica // the primary's own TCP layer, and the secondary's

	// Establishment.
	delta           tcp.Seq // p.iss - s.iss
	deltaKnown      bool
	combinedSynSent bool

	// Server-to-client stream, in the secondary's sequence space.
	sndMax       tcp.Seq // next byte to release to the client
	finSent      bool
	finSeq       tcp.Seq
	finAckedByCl bool

	// What the client was last told of the replicas' acknowledgment state.
	lastAckSent  tcp.Seq
	lastAckValid bool
	lastWinSent  uint16

	// Termination bookkeeping (section 8).
	clientFinSeen bool
	clientFinEnd  tcp.Seq // sequence number just past the client's FIN
}

func (c *pconn) effMSS() int {
	m := c.p.mss
	if c.s.mss != 0 && (m == 0 || c.s.mss < m) {
		m = c.s.mss
	}
	if m == 0 {
		m = defaultMSS
	}
	return int(m)
}

// queued returns the bytes parked in the connection's two output queues.
func (c *pconn) queued() int { return c.p.q.Len() + c.s.q.Len() }

// keptSum records that the secondary's bytes [seq, seq+n) on connection key
// sum to sum. Its stream holds the same bytes at a sequence number however
// often they are sent, so the record stays true until replaced; the zero
// record describes no connection.
type keptSum struct {
	key TupleKey
	seq tcp.Seq
	n   int
	sum uint16
}

// PrimaryBridge is the bridge sublayer on the primary server P.
type PrimaryBridge struct {
	host   *netstack.Host
	aP, aS ipv4.Addr
	sel    *Selector

	// conns maps TupleKey to a slot index in slots; together they replace
	// the map[TupleKey]*pconn a pointer-chasing design would use.
	conns    flowtab.Table
	slots    flowtab.Slab[pconn]
	degraded bool // after secondary failure (section 6)

	// lru orders the slots of conns by recency; past maxConns the oldest
	// is evicted. Legitimate traffic keeps its connection fresh, so a SYN
	// flood's idle embryos are the ones the cap evicts.
	lru      flowtab.LRU
	maxConns int

	// keyScratch is the reusable buffer for the sorted-key reconfiguration
	// walks, so HandleSecondaryFailure does not allocate O(conns) memory in
	// the middle of a takeover.
	keyScratch []uint64

	// emit transports a finished client-bound segment, taking ownership of
	// the packet buffer. The default sends it directly; a daisy chain's
	// interior backup overrides it to divert the merged stream upstream.
	emit func(client ipv4.Addr, pkt *netbuf.Buffer)

	// emitSeg is reusable scratch for the steady-state emit paths: pump,
	// the secondary-failure drain and the retransmission forwarding build
	// each outgoing segment in place instead of allocating one per segment.
	// Safe because emitToClient marshals into a packet buffer before
	// returning, so nothing aliases the scratch across segments. wrapP and
	// wrapS are where a queue assembles the one segment in 64 KiB whose bytes
	// straddle its ring's wrap point; every other payload is read in place.
	emitSeg      tcp.Segment
	wrapP, wrapS []byte

	// kept is the payload sum of the last diverted segment verifyDiverted
	// passed, which a release of exactly its bytes is sealed from.
	kept keptSum

	stats PrimaryStats
	m     primaryMetrics
}

// NewPrimaryBridge installs the bridge on the primary host; it tracks at
// most maxFlows connections (zero selects defaultMaxFlows).
func NewPrimaryBridge(host *netstack.Host, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector, maxFlows int) *PrimaryBridge {
	b := NewPrimaryBridgeCore(host, primaryAddr, secondaryAddr, sel, maxFlows)
	host.SetInboundHook(b.Inbound)
	host.SetOutboundHook(b.Outbound)
	return b
}

// NewPrimaryBridgeCore builds the bridge without installing its hooks on
// the host; a composing bridge (NewInteriorBridge) calls the Inbound/Outbound
// handlers itself.
func NewPrimaryBridgeCore(host *netstack.Host, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector, maxFlows int) *PrimaryBridge {
	if maxFlows <= 0 {
		maxFlows = defaultMaxFlows
	}
	b := &PrimaryBridge{
		host:     host,
		aP:       primaryAddr,
		aS:       secondaryAddr,
		sel:      sel,
		maxConns: maxFlows,
		m:        newPrimaryMetrics(nil, ""),
	}
	b.emit = func(client ipv4.Addr, pkt *netbuf.Buffer) {
		_ = b.host.SendIPFastBuf(b.aP, client, ipv4.ProtoTCP, pkt)
	}
	return b
}

// SetEmitFunc overrides the transport for finished client-bound segments.
// The function takes ownership of the packet buffer and must release it or
// pass it on.
func (b *PrimaryBridge) SetEmitFunc(f func(client ipv4.Addr, pkt *netbuf.Buffer)) { b.emit = f }

// SetMatchingPeer re-points the bridge at the replica now feeding it (used
// when a daisy chain loses an interior backup and the next one down attaches
// directly).
func (b *PrimaryBridge) SetMatchingPeer(a ipv4.Addr) { b.aS = a }

// Stats returns a copy of the bridge counters; the fields that have a
// series are views of it.
func (b *PrimaryBridge) Stats() PrimaryStats {
	s := b.stats
	s.BytesMatched = b.m.matchedBytes.Value()
	s.Divergences = b.m.divergences.Value()
	s.ConnsEvicted = b.m.flowEvictions.Value()
	s.SeqInvalidDrops = b.m.seqInvalidDrops.Value()
	s.MalformedDrops = b.m.malformedDrops.Value()
	return s
}

// Degraded reports whether the bridge has switched to single-server
// operation after a secondary failure.
func (b *PrimaryBridge) Degraded() bool { return b.degraded }

// Conns returns the number of tracked connections.
func (b *PrimaryBridge) Conns() int { return b.conns.Len() }

// lookup returns the live record for key, or nil. The returned pointer is
// valid until the record is removed.
func (b *PrimaryBridge) lookup(key TupleKey) *pconn {
	if i, ok := b.conns.Get(uint64(key)); ok {
		return b.slots.At(i)
	}
	return nil
}

func (b *PrimaryBridge) conn(key TupleKey) *pconn {
	if c := b.lookup(key); c != nil {
		return c
	}
	idx := b.slots.Alloc()
	c := b.slots.At(idx)
	c.key = key
	c.self = int32(idx)
	b.conns.Put(uint64(key), idx)
	b.stats.ConnsOpened++
	b.lru.Push(idx)
	if b.conns.Len() > b.maxConns {
		// The cap is at least one, so the oldest is another record.
		old, _ := b.lru.Oldest()
		b.removeConn(b.slots.At(old))
		b.m.flowEvictions.Inc()
	}
	return c
}

// --- outbound: segments from the primary's own TCP layer --------------------

// Outbound is the bridge's outbound interposition handler (exported for
// composition; NewPrimaryBridge installs it automatically).
func (b *PrimaryBridge) Outbound(src, dst ipv4.Addr, segment []byte) bool {
	key := MakeTupleKey(dst, tcp.RawDstPort(segment), tcp.RawSrcPort(segment))
	// Steady state is a single table hit: a tracked connection implies the
	// selector matched when the record was created, so the (up to three
	// probe) selector runs only on a conns miss.
	c := b.lookup(key)
	if c == nil && !b.sel.Match(key) {
		return false
	}
	if c != nil {
		b.lru.Touch(uint32(c.self))
	} else {
		// Only a SYN may create bridge state (a server-initiated
		// connection, section 7.2). Anything else for an unknown
		// connection is post-cleanup traffic: let a refusal RST through
		// unchanged, swallow the rest. Inbound keeps the one stray whose
		// refusal the client must not see, a bare acknowledgment, from
		// reaching the TCP layer at all.
		flags := tcp.RawFlags(segment)
		if !flags.Has(tcp.FlagSYN) {
			if flags.Has(tcp.FlagRST) {
				tcp.SealChecksum(b.aP, dst, segment)
				_ = b.host.SendIPFastBuf(b.aP, dst, ipv4.ProtoTCP, netbuf.From(segment))
			}
			return true
		}
		c = b.conn(key)
	}
	b.fromReplica(c, &c.p, segment)
	return true
}

// fromReplica takes a segment of tracked connection c from one replica's TCP
// layer: r is &c.p for the primary's own output, whose sequence numbers are
// in P's space and are translated by Delta-seq here, or &c.s for the
// secondary's diverted output, which already is in the space the client
// sees.
func (b *PrimaryBridge) fromReplica(c *pconn, r *replica, segment []byte) {
	own := r == &c.p
	flags := tcp.RawFlags(segment)
	switch {
	case flags.Has(tcp.FlagSYN):
		mss, announced, err := tcp.RawMSS(segment)
		if err != nil {
			return // what the replica's peer would refuse to parse
		}
		if !r.issSet {
			r.issSet = true
			r.iss = tcp.RawSeq(segment)
			r.mss = defaultMSS
			if announced {
				r.mss = mss
			}
			r.synWin = tcp.RawWindow(segment)
		}
		r.win = tcp.RawWindow(segment)
		if flags.Has(tcp.FlagACK) {
			r.ack, r.ackSet = tcp.RawAck(segment), true
		} else if own {
			c.serverInitiated = true
		}
		if b.degraded && !c.s.issSet {
			b.adoptPrimaryAsSecondary(c)
		}
		b.maybeSendCombinedSyn(c)

	case flags.Has(tcp.FlagRST):
		if !own && c.deltaKnown &&
			!tcp.RawSeq(segment).InWindow(c.sndMax.Add(-seqHorizon), 2*seqHorizon) {
			// A diverted RST is forged unless it lands near the release
			// point: the secondary resets in its own sequence space, which
			// the bridge tracks as sndMax.
			b.m.seqInvalidDrops.Inc()
			return
		}
		b.forwardRST(c, segment, own)

	default:
		if !c.deltaKnown {
			return // cannot translate yet; TCP will retransmit
		}
		seq := tcp.RawSeq(segment)
		if own {
			seq -= c.delta
			b.m.seqTranslations.Inc()
		}
		if flags.Has(tcp.FlagACK) {
			r.ack, r.ackSet = tcp.RawAck(segment), true
		}
		r.win = tcp.RawWindow(segment)
		if b.degraded {
			b.forwardDegraded(c, seq, segment, flags)
			return
		}
		b.ingestServerSegment(c, r, seq, tcp.RawPayload(segment), flags)
		b.pump(c)
	}
}

// verifyDiverted checks the TCP checksum of a diverted segment before the
// demultiplexer consumes it and returns its payload sum, taken in the same
// pass. Diverted segments bypass the local TCP layer's verification, and the
// bridge seals what it merges toward the client from that sum or over the
// queued bytes — so without this check, a bit flipped on the server LAN
// would be laundered into a validly-checksummed client segment. Dropping the
// segment instead lets the secondary's TCP retransmit it.
func (b *PrimaryBridge) verifyDiverted(hdr ipv4.Header, payload []byte) (payloadSum uint16, ok bool) {
	if payloadSum, ok = tcp.VerifyChecksum(hdr.Src, hdr.Dst, payload); !ok {
		b.m.badChecksumDrops.Inc()
	}
	return payloadSum, ok
}

// --- inbound: datagrams addressed to aP --------------------------------------

// Inbound is the bridge's inbound interposition handler (exported for
// composition; NewPrimaryBridge installs it automatically).
func (b *PrimaryBridge) Inbound(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
	if len(payload) < tcp.HeaderLen {
		return netstack.VerdictPass, hdr, payload
	}
	if !tcp.RawSane(payload) {
		// A forged data offset would send the raw option/payload slicing
		// below out of range. Endpoints are protected by UnmarshalInto's
		// validation; the bridge works on the raw frame, so it drops here.
		b.m.malformedDrops.Inc()
		return netstack.VerdictDrop, hdr, payload
	}
	if diverted, wellFormed := tcp.HasOrigDstOption(payload); diverted && (hdr.Dst == b.aP || b.host.Owns(hdr.Dst)) {
		// Demultiplexer: a diverted segment from the secondary — also one
		// diverted to another address this host owns (a chain promotion in
		// flight). Only the block the secondary writes is stripped: the
		// option in any other shape is forged and would strip into a
		// different segment. The checksum is verified before the strip,
		// which cancels corrupted option bytes out of the sum; the payload
		// is this station's private copy, so the option is stripped in place.
		if !wellFormed {
			b.m.malformedDrops.Inc()
		} else if sum, ok := b.verifyDiverted(hdr, payload); ok && !b.degraded {
			stripped, orig, _ := tcp.StripOrigDstOptionInPlace(payload)
			b.fromSecondary(orig, stripped, sum)
		}
		return netstack.VerdictDrop, hdr, payload
	}
	if hdr.Dst != b.aP {
		return netstack.VerdictPass, hdr, payload
	}

	// A client segment. A tracked connection implies a past selector match,
	// so steady state is one table hit.
	key := MakeTupleKey(hdr.Src, tcp.RawSrcPort(payload), tcp.RawDstPort(payload))
	flags := tcp.RawFlags(payload)
	c := b.lookup(key)
	if c == nil {
		if !b.sel.Match(key) {
			return netstack.VerdictPass, hdr, payload
		}
		switch {
		case flags.Has(tcp.FlagSYN) && !flags.Has(tcp.FlagACK):
			b.conn(key) // new client-initiated connection
		case flags.Has(tcp.FlagFIN):
			// Retransmitted FIN after the bridge deleted the connection: the
			// acknowledgment that let it do so was lost. Acknowledge it again
			// from the service address, the way every client-bound segment
			// leaves (section 8).
			b.emit(hdr.Src, b.ackOnBehalf(b.aP, hdr.Src, payload))
			return netstack.VerdictDrop, hdr, payload
		case tcp.RawSegLen(payload) == 0 && !flags.Has(tcp.FlagRST):
			// A bare acknowledgment: a client in TIME-WAIT answering a FIN
			// the pair released twice (each replica's TCP retransmits on
			// its own clock). The primary's TCP would refuse it with an RST
			// that ends that TIME-WAIT early (RFC 1337). Data, from a client
			// that believes the connection open, goes on to the TCP layer,
			// whose refusal Outbound passes, as from an unreplicated server.
			return netstack.VerdictDrop, hdr, payload
		}
		return netstack.VerdictPass, hdr, payload
	}

	b.lru.Touch(uint32(c.self))
	// The client's FIN, RST and ACK of the servers' FIN act on the record only
	// if the sum verifies: both replicas discard a segment a wire error hit.
	if flags.Has(tcp.FlagACK) && c.deltaKnown {
		ackS := tcp.RawAck(payload)
		if c.finSent && !c.finAckedByCl && ackS.Greater(c.finSeq) && tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) == 0 {
			c.finAckedByCl = true
		}
		// Translate the acknowledgment into the primary's sequence space so
		// P's TCP layer recognizes it. (The client acknowledges sequence
		// numbers in the secondary's space.)
		tcp.SetRawAck(payload, ackS+c.delta)
		b.m.seqTranslations.Inc()
	}
	if flags.Has(tcp.FlagFIN) && tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) == 0 {
		c.clientFinSeen = true
		c.clientFinEnd = tcp.RawSeq(payload).Add(len(tcp.RawPayload(payload)) + 1)
	}
	if flags.Has(tcp.FlagRST) {
		if c.combinedSynSent && (c.p.ackSet || c.s.ackSet) &&
			!tcp.RawSeq(payload).InWindow(b.minAck(c), seqHorizon) {
			// A blind off-path RST: outside the horizon around the combined
			// acknowledgment it cannot be the client's, and letting it
			// through would tear down bridge state the replicas still hold.
			b.m.seqInvalidDrops.Inc()
			return netstack.VerdictDrop, hdr, payload
		}
		// Both replicas' TCP layers observe a reset that verifies; nothing
		// remains for the bridge to reconcile.
		if tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) == 0 {
			b.removeConn(c)
		}
		return netstack.VerdictPass, hdr, payload
	}
	if n := tcp.RawSegLen(payload); n > 0 && c.combinedSynSent && c.lastAckValid {
		if !tcp.RawSeq(payload).Add(n).InWindow(b.minAck(c).Add(-seqHorizon), 3*seqHorizon) {
			// Stale or far-future data: answering it would hand a blind
			// forger an acknowledgment reflector, so it is dropped instead.
			b.m.seqInvalidDrops.Inc()
			return netstack.VerdictDrop, hdr, payload
		}
		if tcp.RawSeq(payload).Add(n).Leq(b.minAck(c)) {
			// The client retransmits data, a SYN or a FIN both replicas
			// have already acknowledged — it missed the acknowledgment.
			// The replicas' duplicate ACKs would not advance the combined
			// minimum, so the bridge answers directly (the duplicate-ACK
			// analogue of the section 4 retransmission forwarding).
			b.emitToClient(c, b.segmentAt(c, c.sndMax, tcp.FlagACK, nil))
		}
	}
	b.maybeGC(c)
	return netstack.VerdictPass, hdr, payload
}

// forwardDegraded implements section 6 step 3: after the secondary fails,
// segments from the primary's TCP layer are no longer delayed and carry the
// primary's own acknowledgment and window, but the bridge must continue to
// subtract Delta-seq from outgoing sequence numbers forever, because the
// client's TCP layer is synchronized to the secondary's sequence space.
func (b *PrimaryBridge) forwardDegraded(c *pconn, sSeq tcp.Seq, segment []byte, flags tcp.Flags) {
	tcp.SetRawSeq(segment, sSeq)
	end := sSeq.Add(len(tcp.RawPayload(segment)))
	if flags.Has(tcp.FlagFIN) {
		end = end.Add(1)
		if !c.finSent {
			c.finSent = true
			c.finSeq = end.Add(-1)
		}
	}
	if end.Greater(c.sndMax) {
		c.sndMax = end
	}
	if flags.Has(tcp.FlagACK) {
		c.lastAckSent = tcp.RawAck(segment)
		c.lastAckValid = true
		c.lastWinSent = tcp.RawWindow(segment)
	}
	b.stats.SegmentsToClient++
	// The segment slice is borrowed from the outbound hook; the emit
	// function takes ownership of its argument, so hand it a pooled copy,
	// sealed now that it is rewritten.
	pkt := netbuf.From(segment)
	tcp.SealChecksum(b.aP, c.key.PeerAddr(), pkt.Bytes())
	b.emit(c.key.PeerAddr(), pkt)
}

// fromSecondary processes a diverted segment whose original destination was
// orig (the client address) and whose payload verifyDiverted summed to
// payloadSum.
func (b *PrimaryBridge) fromSecondary(orig ipv4.Addr, segment []byte, payloadSum uint16) {
	key := MakeTupleKey(orig, tcp.RawDstPort(segment), tcp.RawSrcPort(segment))
	b.kept = keptSum{key: key, seq: tcp.RawSeq(segment), n: len(tcp.RawPayload(segment)), sum: payloadSum}
	c := b.lookup(key)
	if c != nil {
		b.lru.Touch(uint32(c.self))
	} else {
		flags := tcp.RawFlags(segment)
		switch {
		case flags.Has(tcp.FlagFIN) || len(tcp.RawPayload(segment)) > 0:
			// The secondary retransmits data or its FIN because it missed
			// the client's closing ACKs. The bridge only deletes its state
			// once the client has acknowledged everything, so it answers
			// these retransmissions on the client's behalf (section 8).
			_ = b.host.SendIPFastBuf(orig, b.aS, ipv4.ProtoTCP, b.ackOnBehalf(orig, b.aS, segment))
			return
		case flags.Has(tcp.FlagSYN):
			c = b.conn(key)
		default:
			// A delayed pure ACK: creating state for it would swallow
			// subsequent retransmissions.
			return
		}
	}
	b.fromReplica(c, &c.s, segment)
}

// ingestServerSegment handles a data-bearing (or FIN-bearing) segment from
// replica r, already expressed in the secondary's sequence space.
func (b *PrimaryBridge) ingestServerSegment(c *pconn, r *replica, sSeq tcp.Seq, payload []byte, flags tcp.Flags) {
	end := sSeq.Add(len(payload))
	if flags.Has(tcp.FlagFIN) {
		r.fin, r.finSet = end, true
		end = end.Add(1)
	}
	if (len(payload) > 0 || flags.Has(tcp.FlagFIN)) && end.Leq(c.sndMax) {
		// A retransmission of bytes already released: the bridge receives
		// only a single copy, so it must send it immediately (section 4).
		b.stats.RetransmissionsForwarded++
		if r == &c.p {
			b.kept = keptSum{} // the primary's own bytes: summed in full
		}
		// payload aliases the inbound frame's private copy; emitToClient
		// marshals it into a packet buffer before returning, so no copy.
		b.emitToClient(c, b.segmentAt(c, sSeq, tcp.FlagACK|tcp.FlagPSH|flags&tcp.FlagFIN, payload))
		return
	}
	if len(payload) > 0 {
		// Insert trims duplicates below the floor, so the gauge tracks the
		// realized growth rather than the raw payload length.
		before := r.q.Len()
		if r.q.Insert(sSeq, payload, queueSpan) > 0 {
			// Bytes further past the release point than any unscaled window
			// reaches: no replica sent this.
			b.m.seqInvalidDrops.Inc()
		}
		b.m.queueBytes.Add(int64(r.q.Len() - before))
	}
}

// pump constructs new client segments from matching queued payload
// (Figure 2) and forwards acknowledgment/window advances. The two queues'
// bytes are compared before release: the paper assumes the replicas are
// deterministic, and a stream the bridge cannot vouch for ends in a reset.
func (b *PrimaryBridge) pump(c *pconn) {
	mss := c.effMSS()
	for {
		if n := min(c.p.q.Ready(), c.s.q.Ready(), mss); n > 0 {
			sb := c.s.q.Peek(n, &b.wrapS)
			if !bytes.Equal(c.p.q.Peek(n, &b.wrapP), sb) {
				b.resetDiverged(c)
				return
			}
			b.m.matchedBytes.Add(int64(n))
			b.releaseData(c, sb)
			continue
		}
		if !b.finsMatched(c) {
			break
		}
		b.releaseFin(c)
	}
	c.parkQueues()
	b.maybeEmitAck(c)
	b.maybeGC(c)
}

// parkQueues returns both queues' rings to the store once the connection
// has nothing queued, so a connection between replies parks no storage in
// the bridge. While either replica is ahead the other's ring stays too:
// its next segment is already on the wire.
func (c *pconn) parkQueues() {
	if c.p.q.Cap()+c.s.q.Cap() != 0 && c.queued() == 0 {
		c.p.q.Release()
		c.s.q.Release()
	}
}

// segmentAt readies the bridge's scratch segment for emitToClient: flags and
// payload at seq — the release point, except for a forwarded retransmission
// — carrying the combined acknowledgment and window of the moment.
func (b *PrimaryBridge) segmentAt(c *pconn, seq tcp.Seq, flags tcp.Flags, payload []byte) *tcp.Segment {
	b.emitSeg = tcp.Segment{Seq: seq, Ack: b.minAck(c), Flags: flags, Window: b.minWin(c), Payload: payload}
	return &b.emitSeg
}

// releaseData sends payload — bytes a queue's Peek returned, read in place
// — to the client as one segment at the release point and advances both
// queues past it, with the FIN folded in when the stream ends there.
// Advance only moves the floors, so payload stays intact until
// emitToClient has marshalled it; the rings go back to the store later, in
// the caller (parkQueues), once drained.
func (b *PrimaryBridge) releaseData(c *pconn, payload []byte) {
	out := b.segmentAt(c, c.sndMax, tcp.FlagACK|tcp.FlagPSH, payload)
	// The secondary queue may hold fewer bytes than are released (degraded
	// drain), so the gauge moves by the realized shrinkage.
	before := c.queued()
	c.p.q.Advance(len(payload))
	c.s.q.Advance(len(payload))
	b.m.queueBytes.Add(int64(c.queued() - before))
	c.sndMax = c.sndMax.Add(len(payload))
	if b.finsMatched(c) && c.p.q.Len() == 0 && (b.degraded || c.s.q.Len() == 0) {
		out.Flags |= tcp.FlagFIN
		c.finSent, c.finSeq, c.sndMax = true, c.sndMax, c.sndMax.Add(1)
	}
	b.emitToClient(c, out)
}

// releaseFin sends the servers' FIN on its own, at the release point.
func (b *PrimaryBridge) releaseFin(c *pconn) {
	out := b.segmentAt(c, c.sndMax, tcp.FlagACK|tcp.FlagFIN, nil)
	c.finSent, c.finSeq, c.sndMax = true, c.sndMax, c.sndMax.Add(1)
	b.emitToClient(c, out)
}

// finsMatched reports whether the servers' stream ends at the release point
// and its FIN is still to be sent: both replicas' FINs sit there, or the
// primary's alone once the secondary has failed.
func (b *PrimaryBridge) finsMatched(c *pconn) bool {
	return !c.finSent && c.p.finAt(c.sndMax) && (b.degraded || c.s.finAt(c.sndMax))
}

// minAck is the acknowledgment the client may see: the smaller of the two
// replicas' (requirement 2 of the paper: nothing is acknowledged before both
// hold it), or the primary's alone once the secondary has failed.
func (b *PrimaryBridge) minAck(c *pconn) tcp.Seq {
	switch {
	case b.degraded || !c.s.ackSet:
		return c.p.ack
	case !c.p.ackSet:
		return c.s.ack
	default:
		return tcp.MinSeq(c.p.ack, c.s.ack)
	}
}

// minWin is the window the client may see, by the same rule.
func (b *PrimaryBridge) minWin(c *pconn) uint16 {
	if b.degraded {
		return c.p.win
	}
	return min(c.p.win, c.s.win)
}

// maybeEmitAck constructs a payload-less segment when the combined
// acknowledgment advances (or the combined window reopens), preventing the
// deadlock the paper describes when the server applications send no data.
func (b *PrimaryBridge) maybeEmitAck(c *pconn) {
	if !c.combinedSynSent || !c.p.ackSet || !(b.degraded || c.s.ackSet) {
		return
	}
	needAck := !c.lastAckValid || b.minAck(c).Greater(c.lastAckSent)
	winDelta := int(b.minWin(c)) - int(c.lastWinSent)
	needWin := winDelta > 0 && (c.lastWinSent == 0 || winDelta >= c.effMSS())
	if !needAck && !needWin {
		return
	}
	b.emitToClient(c, b.segmentAt(c, c.sndMax, tcp.FlagACK, nil))
}

// maybeSendCombinedSyn emits the SYN (or SYN-ACK) the client sees, once
// both replicas' SYNs are known: sequence number in the secondary's space,
// MSS and window the minimum of the two (section 7).
func (b *PrimaryBridge) maybeSendCombinedSyn(c *pconn) {
	if !c.p.issSet || !c.s.issSet {
		return
	}
	if !c.combinedSynSent {
		c.delta = c.p.iss - c.s.iss
		c.deltaKnown = true
		c.sndMax = c.s.iss.Add(1)
		c.p.q.Reset(c.sndMax)
		c.s.q.Reset(c.sndMax)
	}
	seg := &tcp.Segment{
		Seq:     c.s.iss,
		Flags:   tcp.FlagSYN,
		Window:  min(c.p.synWin, c.s.synWin),
		Options: []tcp.Option{tcp.MSSOption(uint16(c.effMSS()))},
	}
	if !c.serverInitiated {
		seg.Flags |= tcp.FlagACK
		seg.Ack = b.minAck(c)
	}
	c.combinedSynSent = true
	b.emitToClient(c, seg)
}

// adoptPrimaryAsSecondary handles connections still establishing when the
// secondary fails: the primary's own SYN stands in for the missing
// secondary's, making Delta-seq zero for this connection. Nothing is queued
// before Delta-seq is known, so the record copied holds no ring storage.
func (b *PrimaryBridge) adoptPrimaryAsSecondary(c *pconn) { c.s = c.p }

// forwardRST passes a replica's reset on to the client and forgets the
// connection; own marks the primary's, whose sequence number is in P's space.
func (b *PrimaryBridge) forwardRST(c *pconn, segment []byte, own bool) {
	seq := tcp.RawSeq(segment)
	if own {
		if c.deltaKnown {
			seq -= c.delta
			b.m.seqTranslations.Inc()
		} else if !tcp.RawFlags(segment).Has(tcp.FlagACK) {
			// Cannot express the reset in the client's sequence space.
			return
		}
	}
	out := &tcp.Segment{Seq: seq, Flags: tcp.FlagRST}
	if tcp.RawFlags(segment).Has(tcp.FlagACK) {
		out.Flags |= tcp.FlagACK
		out.Ack = tcp.RawAck(segment)
	}
	b.emitToClient(c, out)
	b.removeConn(c)
}

// resetDiverged ends connection c, whose replicas produced different bytes
// at the release point, without releasing any of them: the client gets a
// reset there, each replica's TCP layer gets the reset the client would
// send it — at its own last acknowledgment, as ackOnBehalf speaks for the
// client — and the record goes. The own layer's reset is delivered as a
// separate event, since pump may be running inside that layer's output.
func (b *PrimaryBridge) resetDiverged(c *pconn) {
	b.m.countDivergence()
	b.emitToClient(c, &tcp.Segment{Seq: c.sndMax, Flags: tcp.FlagRST})
	client, self := c.key.PeerAddr(), b.aP
	_ = b.host.SendIPFastBuf(client, b.aS, ipv4.ProtoTCP, b.rstOnBehalf(c, b.aS, c.s.ack))
	rst, h := b.rstOnBehalf(c, self, c.p.ack), b.host
	h.Scheduler().After(0, "bridge.divergence_reset", func() {
		if h.Alive() {
			h.TCP().Input(client, self, rst.Bytes())
		}
		rst.Release()
	})
	b.removeConn(c)
}

// rstOnBehalf builds the reset c's client would send the replica at dst,
// at sequence number seq.
func (b *PrimaryBridge) rstOnBehalf(c *pconn, dst ipv4.Addr, seq tcp.Seq) *netbuf.Buffer {
	b.emitSeg = tcp.Segment{SrcPort: c.key.PeerPort(), DstPort: c.key.LocalPort(), Seq: seq, Flags: tcp.FlagRST}
	return sealedFor(c.key.PeerAddr(), dst, &b.emitSeg)
}

// sealedFor marshals the payload-less seg into a pooled packet buffer,
// sealed for the hop from src to dst.
func sealedFor(src, dst ipv4.Addr, seg *tcp.Segment) *netbuf.Buffer {
	pkt := netbuf.Get()
	tcp.MarshalReserve(pkt, seg, 0)
	tcp.SealChecksum(src, dst, pkt.Bytes())
	return pkt
}

func (b *PrimaryBridge) emitToClient(c *pconn, seg *tcp.Segment) {
	seg.SrcPort = c.key.LocalPort()
	seg.DstPort = c.key.PeerPort()
	// Marshal straight into a pooled packet buffer: one copy of the
	// payload, and the emit function forwards the buffer without another.
	pkt := netbuf.Get()
	copy(tcp.MarshalReserve(pkt, seg, len(seg.Payload)), seg.Payload)
	if k := &b.kept; k.key == c.key && k.seq == seg.Seq && k.n == len(seg.Payload) {
		// The payload is not summed again (paper section 3.1), so a byte
		// damaged while it waited in the queue fails the client's check.
		tcp.SealChecksumFrom(b.aP, c.key.PeerAddr(), pkt.Bytes(), k.sum)
	} else {
		tcp.SealChecksum(b.aP, c.key.PeerAddr(), pkt.Bytes())
	}
	b.stats.SegmentsToClient++
	b.m.releasedBytes.Add(int64(len(seg.Payload)))
	if seg.Flags.Has(tcp.FlagACK) {
		c.lastAckSent = seg.Ack
		c.lastAckValid = true
		c.lastWinSent = seg.Window
	}
	b.emit(c.key.PeerAddr(), pkt)
}

// ackOnBehalf builds the bare acknowledgment that answers segment — data or
// a FIN of a connection the bridge has already deleted (section 8) — with
// the segment's endpoints swapped: from src, the address the segment was
// for, to dst, its sender. The caller transports the packet: to the client
// through emit, or to the secondary as if the client had sent it.
func (b *PrimaryBridge) ackOnBehalf(src, dst ipv4.Addr, segment []byte) *netbuf.Buffer {
	end := tcp.RawSeq(segment).Add(len(tcp.RawPayload(segment)))
	if tcp.RawFlags(segment).Has(tcp.FlagFIN) {
		end = end.Add(1)
	}
	b.emitSeg = tcp.Segment{
		SrcPort: tcp.RawDstPort(segment),
		DstPort: tcp.RawSrcPort(segment),
		Seq:     tcp.RawAck(segment),
		Ack:     end,
		Flags:   tcp.FlagACK,
		Window:  65535,
	}
	b.stats.LateFinAcks++
	return sealedFor(src, dst, &b.emitSeg)
}

// maybeGC deletes the connection record once both directions are fully
// closed (section 8): the servers' FIN has been acknowledged by the client
// and the client's FIN has been acknowledged by both servers.
func (b *PrimaryBridge) maybeGC(c *pconn) {
	if c.finSent && c.finAckedByCl && c.clientFinSeen && b.minAck(c).Geq(c.clientFinEnd) {
		b.removeConn(c)
	}
}

func (b *PrimaryBridge) removeConn(c *pconn) {
	idx, ok := b.conns.Get(uint64(c.key))
	if !ok || b.slots.At(idx) != c {
		return
	}
	b.lru.Remove(idx)
	b.conns.Delete(uint64(c.key))
	b.stats.ConnsClosed++
	b.m.queueBytes.Add(int64(-c.queued()))
	c.p.q.Release()
	c.s.q.Release()
	b.slots.Free(idx) // zeroes the record
}

// Crash drops every record and its queues, in key order as
// HandleSecondaryFailure walks: a fail-stopped member holds nothing.
func (b *PrimaryBridge) Crash() {
	b.keyScratch = b.conns.AppendKeys(b.keyScratch[:0])
	slices.Sort(b.keyScratch)
	for _, k := range b.keyScratch {
		if idx, ok := b.conns.Get(k); ok {
			b.removeConn(b.slots.At(idx))
		}
	}
}

// HandleSecondaryFailure reconfigures the bridge per section 6 of the
// paper: flush the primary output queues to the client, disable the
// demultiplexer and the delaying of primary segments, and keep subtracting
// Delta-seq from outgoing sequence numbers forever (the client is
// synchronized to the secondary's sequence space).
func (b *PrimaryBridge) HandleSecondaryFailure() {
	if b.degraded {
		return
	}
	b.degraded = true
	b.kept = keptSum{} // what the drain releases is the primary's
	// The walk must be deterministic (the table's internal order is not):
	// sort the keys into the bridge's reusable scratch buffer rather than
	// allocating O(conns) in the middle of a takeover.
	b.keyScratch = b.conns.AppendKeys(b.keyScratch[:0])
	slices.Sort(b.keyScratch)
	for _, k := range b.keyScratch {
		idx, ok := b.conns.Get(k)
		if !ok {
			continue
		}
		c := b.slots.At(idx)
		if !c.deltaKnown {
			if c.p.issSet && !c.s.issSet {
				b.adoptPrimaryAsSecondary(c)
				b.maybeSendCombinedSyn(c)
			}
			continue
		}
		// Step 1: drain the primary output queue into new segments, through
		// pump's emit path: a takeover allocates nothing per segment.
		mss := c.effMSS()
		for n := c.p.q.Ready(); n > 0; n = c.p.q.Ready() {
			b.releaseData(c, c.p.q.Peek(min(n, mss), &b.wrapP))
		}
		if b.finsMatched(c) {
			b.releaseFin(c)
		}
		c.parkQueues()
		b.maybeEmitAck(c)
		b.maybeGC(c) // the acknowledgment of the client's FIN may be out now
	}
}
