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

// PrimaryConfig tunes the primary bridge.
type PrimaryConfig struct {
	// VerifyReplicaOutput compares the matched bytes from the two replicas
	// and counts divergences (a replica-determinism check the paper assumes
	// rather than enforces). The secondary's bytes win, since the client's
	// sequence numbers are synchronized to the secondary.
	VerifyReplicaOutput bool
	// ValidateSeq enables in-window sequence validation on the bridge's
	// client-facing and diverted paths: a client RST tears bridge state
	// down only when its sequence number sits within one window of the
	// combined acknowledgment, client data is answered or forwarded only
	// within one window of the same horizon, and a diverted RST from the
	// secondary must land within one window of the release point. Off by
	// default (the paper's bridge trusts the wire); the E11 adversary
	// experiment measures the difference. Out-of-horizon segments are
	// dropped and counted in bridge_seq_invalid_drops_total.
	ValidateSeq bool
	// MaxConns bounds the tracked-connection table. When the cap is
	// exceeded the least-recently-touched connection is evicted (counted in
	// bridge_flow_evictions_total), which keeps a SYN flood of spoofed
	// clients from growing the table without limit. 0 means unbounded (the
	// historical behavior, with zero bookkeeping cost).
	MaxConns int
}

// defaultMSS is assumed when a SYN carries no MSS option (RFC 1122).
const defaultMSS = 536

// PrimaryStats counts the primary bridge's work.
type PrimaryStats struct {
	SegmentsFromPrimary      int64
	SegmentsFromSecondary    int64
	SegmentsToClient         int64
	BytesMatched             int64
	EmptyAcks                int64
	RetransmissionsForwarded int64
	Divergences              int64
	LateFinAcks              int64
	ConnsOpened              int64
	ConnsClosed              int64
	BadChecksumDrops         int64
	ConnsEvicted             int64 // LRU evictions under the MaxConns cap
	SeqInvalidDrops          int64 // segments rejected by in-window validation
	MalformedDrops           int64 // frames with an inconsistent data offset
}

// seqHorizon is the validation window ValidateSeq applies around the
// bridge's acknowledgment and release points: one maximum unscaled TCP
// window. A blind off-path forger must land within it, which shrinks the
// per-probe success probability from certainty (any RST tore state down)
// to 2^16/2^32.
const seqHorizon = 65536

// queueSpan is how far past its floor an output queue holds bytes. TCP here
// has no window scaling, so a replica never sends further than 65 535 bytes
// past what the client acknowledged, which the floor has passed; the byte
// store's largest class covers that. A segment claiming more is forged, and
// is clipped rather than allowed to size an allocation.
const queueSpan = netbuf.MaxBytes

// pconn is the primary bridge's per-connection state: the two output
// queues, the sequence-number offset, and the acknowledgment/window
// bookkeeping of sections 3 and 7 of the paper.
//
// Records live by value in the bridge's slab, addressed by slot index, and
// hold no pointers to other records: the LRU links are slot indices, and
// the output queues are embedded rings, which hold no pointer at all while
// nothing is queued. At a million connections the garbage collector
// therefore sees one conns table and one slab — not a million pconns each
// dragging two queue objects (DESIGN.md §14).
type pconn struct {
	key             TupleKey
	self            int32 // own slot index in the bridge's slab
	serverInitiated bool

	// Establishment.
	seqPInit, seqSInit tcp.Seq
	pInitSet, sInitSet bool
	delta              tcp.Seq // seqP,init - seqS,init
	deltaKnown         bool
	mssP, mssS         uint16
	synWinP, synWinS   uint16
	combinedSynSent    bool

	// Server-to-client stream, in the secondary's sequence space.
	sndMax       tcp.Seq // next byte to release to the client
	pq, sq       tcp.ByteRing
	pFin, sFin   tcp.Seq
	pFinSet      bool
	sFinSet      bool
	finSent      bool
	finSeq       tcp.Seq
	finAckedByCl bool

	// Client-stream acknowledgment state from each replica.
	ackP, ackS       tcp.Seq
	ackPSet, ackSSet bool
	winP, winS       uint16
	lastAckSent      tcp.Seq
	lastAckValid     bool
	lastWinSent      uint16

	// Termination bookkeeping (section 8).
	clientFinSeen bool
	clientFinEnd  tcp.Seq // sequence number just past the client's FIN
}

func (c *pconn) effMSS() int {
	m := c.mssP
	if c.mssS != 0 && (m == 0 || c.mssS < m) {
		m = c.mssS
	}
	if m == 0 {
		m = defaultMSS
	}
	return int(m)
}

// PrimaryBridge is the bridge sublayer on the primary server P.
type PrimaryBridge struct {
	host   *netstack.Host
	aP, aS ipv4.Addr
	sel    *Selector
	cfg    PrimaryConfig

	// conns maps TupleKey to a slot index in slots; together they replace
	// the map[TupleKey]*pconn a pointer-chasing design would use.
	conns    flowtab.Table
	slots    flowtab.Slab[pconn]
	degraded bool // after secondary failure (section 6)

	// lru orders the slots of conns by recency; only maintained when
	// cfg.MaxConns > 0, so the unbounded default path pays nothing for it.
	lru flowtab.LRU

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

	stats PrimaryStats
	m     primaryMetrics
	// OnDivergence, if set, is called when replica outputs differ.
	OnDivergence func(key TupleKey, seq tcp.Seq)
}

// NewPrimaryBridge installs the bridge on the primary host.
func NewPrimaryBridge(host *netstack.Host, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector, cfg PrimaryConfig) *PrimaryBridge {
	b := NewPrimaryBridgeCore(host, primaryAddr, secondaryAddr, sel, cfg)
	host.SetInboundHook(b.Inbound)
	host.SetOutboundHook(b.Outbound)
	return b
}

// NewPrimaryBridgeCore builds the bridge without installing its hooks on
// the host; a composing bridge (NewInteriorBridge) calls the Inbound/Outbound
// handlers itself.
func NewPrimaryBridgeCore(host *netstack.Host, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector, cfg PrimaryConfig) *PrimaryBridge {
	b := &PrimaryBridge{
		host: host,
		aP:   primaryAddr,
		aS:   secondaryAddr,
		sel:  sel,
		cfg:  cfg,
		m:    newPrimaryMetrics(nil, ""),
	}
	b.emit = func(client ipv4.Addr, pkt *netbuf.Buffer) {
		_ = b.host.SendIPFastBuf(b.aP, client, ipv4.ProtoTCP, pkt)
	}
	return b
}

// Inbound is the bridge's inbound interposition handler (exported for
// composition; NewPrimaryBridge installs it automatically).
func (b *PrimaryBridge) Inbound(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
	return b.inbound(ifIndex, hdr, payload)
}

// Outbound is the bridge's outbound interposition handler.
func (b *PrimaryBridge) Outbound(src, dst ipv4.Addr, segment []byte) bool {
	return b.outbound(src, dst, segment)
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
	s.ConnsEvicted = b.m.flowEvictions.Value()
	s.BadChecksumDrops = b.m.badChecksumDrops.Value()
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
// valid until the next slot allocation (b.conn on a miss).
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
	if b.cfg.MaxConns > 0 {
		b.lru.Push(idx)
		for b.conns.Len() > b.cfg.MaxConns {
			old, ok := b.lru.Oldest()
			if !ok || old == idx {
				break
			}
			b.removeConn(b.slots.At(old))
			b.m.flowEvictions.Inc()
		}
	}
	return c
}

// lruTouch moves c to the front: legitimate traffic keeps its connection
// fresh, so a SYN flood's idle embryos are the ones the cap evicts.
func (b *PrimaryBridge) lruTouch(c *pconn) {
	if b.cfg.MaxConns > 0 {
		b.lru.Touch(uint32(c.self))
	}
}

// --- outbound: segments from the primary's own TCP layer --------------------

func (b *PrimaryBridge) outbound(src, dst ipv4.Addr, segment []byte) bool {
	key := MakeTupleKey(dst, tcp.RawDstPort(segment), tcp.RawSrcPort(segment))
	// Steady state is a single table hit: a tracked connection implies the
	// selector matched when the record was created, so the (up to three
	// probe) selector runs only on a conns miss.
	c := b.lookup(key)
	exists := c != nil
	if !exists && !b.sel.Match(key) {
		return false
	}
	b.stats.SegmentsFromPrimary++
	flags := tcp.RawFlags(segment)
	if exists {
		b.lruTouch(c)
	}
	if !exists {
		// Only a SYN may create bridge state (a server-initiated
		// connection, section 7.2). Anything else for an unknown
		// connection is post-cleanup traffic: let a refusal RST through
		// unchanged, swallow the rest.
		if !flags.Has(tcp.FlagSYN) {
			if flags.Has(tcp.FlagRST) && flags.Has(tcp.FlagACK) {
				_ = b.host.SendIPFast(b.aP, dst, ipv4.ProtoTCP, segment)
			}
			return true
		}
		c = b.conn(key)
	}

	switch {
	case flags.Has(tcp.FlagSYN):
		seg, err := tcp.Unmarshal(src, dst, segment, false)
		if err != nil {
			return true
		}
		if !c.pInitSet {
			c.pInitSet = true
			c.seqPInit = seg.Seq
			if mss, ok := seg.MSS(); ok {
				c.mssP = mss
			} else {
				c.mssP = defaultMSS
			}
			c.synWinP = seg.Window
		}
		c.winP = seg.Window
		if flags.Has(tcp.FlagACK) {
			c.ackP = seg.Ack
			c.ackPSet = true
		} else {
			c.serverInitiated = true
		}
		if b.degraded && !c.sInitSet {
			b.adoptPrimaryAsSecondary(c)
		}
		b.maybeSendCombinedSyn(c)
		return true

	case flags.Has(tcp.FlagRST):
		b.forwardRST(c, segment, true)
		return true

	default:
		if !c.deltaKnown {
			return true // cannot translate yet; TCP will retransmit
		}
		sSeq := tcp.RawSeq(segment) - c.delta
		b.m.seqTranslations.Inc()
		if flags.Has(tcp.FlagACK) {
			c.ackP = tcp.RawAck(segment)
			c.ackPSet = true
		}
		c.winP = tcp.RawWindow(segment)
		if b.degraded {
			b.forwardDegraded(c, sSeq, segment, flags)
			return true
		}
		payload := tcp.RawPayload(segment)
		b.ingestServerSegment(c, sSeq, payload, flags, true)
		b.pump(c)
		return true
	}
}

// verifyDiverted checks the TCP checksum of a diverted segment before the
// demultiplexer consumes it. Diverted segments bypass the local TCP layer's
// verification, and the bridge re-checksums the bytes it merges toward the
// client — so without this check, a bit flipped on the server LAN would be
// laundered into a validly-checksummed client segment. Dropping the
// segment instead lets the secondary's TCP retransmit it.
func (b *PrimaryBridge) verifyDiverted(hdr ipv4.Header, payload []byte) bool {
	if tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) != 0 {
		b.m.badChecksumDrops.Inc()
		return false
	}
	return true
}

// --- inbound: datagrams addressed to aP --------------------------------------

func (b *PrimaryBridge) inbound(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
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
	if hdr.Dst != b.aP {
		// Segments diverted to another address this host owns (a chain
		// promotion in flight) still belong to the demultiplexer; anything
		// else is not ours. The checksum must be verified before the strip:
		// the in-place strip cancels corrupted option bytes out of the sum.
		if tcp.HasOrigDstOption(payload) && b.host.Owns(hdr.Dst) {
			if !b.verifyDiverted(hdr, payload) {
				return netstack.VerdictDrop, hdr, payload
			}
			if stripped, orig, ok := tcp.StripOrigDstOptionInPlace(payload); ok {
				if !b.degraded {
					b.fromSecondary(orig, stripped)
				}
				return netstack.VerdictDrop, hdr, payload
			}
		}
		return netstack.VerdictPass, hdr, payload
	}
	if tcp.HasOrigDstOption(payload) {
		// Demultiplexer: a diverted segment from the secondary. The payload
		// is this station's private copy, so the option is stripped in
		// place — no per-segment copy.
		if !b.verifyDiverted(hdr, payload) {
			return netstack.VerdictDrop, hdr, payload
		}
		stripped, orig, _ := tcp.StripOrigDstOptionInPlace(payload)
		if !b.degraded {
			b.fromSecondary(orig, stripped)
		}
		return netstack.VerdictDrop, hdr, payload
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
			c = b.conn(key) // new client-initiated connection
			_ = c
		case flags.Has(tcp.FlagFIN):
			// Retransmitted FIN after the bridge deleted the connection:
			// acknowledge it directly (section 8).
			b.synthesizeAck(key.PeerAddr(), key.PeerPort(), b.aP, key.LocalPort(),
				tcp.RawAck(payload),
				tcp.RawSeq(payload).Add(len(tcp.RawPayload(payload))+1))
			b.stats.LateFinAcks++
			return netstack.VerdictDrop, hdr, payload
		}
		return netstack.VerdictPass, hdr, payload
	}

	b.lruTouch(c)
	if flags.Has(tcp.FlagACK) && c.deltaKnown {
		ackS := tcp.RawAck(payload)
		if c.finSent && ackS.Greater(c.finSeq) {
			c.finAckedByCl = true
		}
		// Translate the acknowledgment into the primary's sequence space so
		// P's TCP layer recognizes it. (The client acknowledges sequence
		// numbers in the secondary's space.)
		tcp.SetRawAck(payload, ackS+c.delta)
		b.m.seqTranslations.Inc()
	}
	if flags.Has(tcp.FlagFIN) {
		c.clientFinSeen = true
		c.clientFinEnd = tcp.RawSeq(payload).Add(len(tcp.RawPayload(payload)) + 1)
	}
	if flags.Has(tcp.FlagRST) {
		if b.cfg.ValidateSeq && c.combinedSynSent && (c.ackPSet || c.ackSSet) &&
			!tcp.RawSeq(payload).InWindow(c.minAck(b.degraded), seqHorizon) {
			// A blind off-path RST: outside the horizon around the combined
			// acknowledgment it cannot be the client's, and letting it
			// through would tear down bridge state the replicas still hold.
			b.m.seqInvalidDrops.Inc()
			return netstack.VerdictDrop, hdr, payload
		}
		// Both replicas' TCP layers observe the reset; nothing remains for
		// the bridge to reconcile.
		b.removeConn(c)
		return netstack.VerdictPass, hdr, payload
	}
	if n := len(tcp.RawPayload(payload)); n > 0 && c.combinedSynSent && c.lastAckValid {
		if b.cfg.ValidateSeq &&
			!tcp.RawSeq(payload).Add(n).InWindow(c.minAck(b.degraded).Add(-seqHorizon), 3*seqHorizon) {
			// Stale or far-future data: answering it would hand a blind
			// forger an acknowledgment reflector, so it is dropped instead.
			b.m.seqInvalidDrops.Inc()
			return netstack.VerdictDrop, hdr, payload
		}
		if tcp.RawSeq(payload).Add(n).Leq(c.minAck(b.degraded)) {
			// The client retransmits data both replicas have already
			// acknowledged — it missed the acknowledgment. The replicas'
			// duplicate ACKs would not advance the combined minimum, so the
			// bridge answers directly (the duplicate-ACK analogue of the
			// section 4 retransmission forwarding).
			b.stats.EmptyAcks++
			out := &b.emitSeg
			*out = tcp.Segment{
				Seq:    c.sndMax,
				Ack:    c.minAck(b.degraded),
				Flags:  tcp.FlagACK,
				Window: c.minWin(b.degraded),
			}
			b.emitToClient(c, out)
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
	// function takes ownership of its argument, so hand it a pooled copy.
	b.emit(c.key.PeerAddr(), netbuf.From(segment))
}

// fromSecondary processes a diverted segment whose original destination was
// orig (the client address).
func (b *PrimaryBridge) fromSecondary(orig ipv4.Addr, segment []byte) {
	b.stats.SegmentsFromSecondary++
	key := MakeTupleKey(orig, tcp.RawDstPort(segment), tcp.RawSrcPort(segment))
	flags := tcp.RawFlags(segment)
	c := b.lookup(key)
	exists := c != nil
	if !exists {
		switch {
		case flags.Has(tcp.FlagFIN) || len(tcp.RawPayload(segment)) > 0:
			// The secondary retransmits data or its FIN because it missed
			// the client's closing ACKs. The bridge only deletes its state
			// once the client has acknowledged everything, so it answers
			// these retransmissions on the client's behalf (section 8).
			end := tcp.RawSeq(segment).Add(len(tcp.RawPayload(segment)))
			if flags.Has(tcp.FlagFIN) {
				end = end.Add(1)
			}
			b.synthesizeAck(orig, key.PeerPort(), b.aS, key.LocalPort(),
				tcp.RawAck(segment), end)
			b.stats.LateFinAcks++
			return
		case flags.Has(tcp.FlagSYN):
			c = b.conn(key)
		default:
			// A delayed pure ACK: creating state for it would swallow
			// subsequent retransmissions.
			return
		}
	}
	if exists {
		b.lruTouch(c)
	}

	switch {
	case flags.Has(tcp.FlagSYN):
		seg, err := tcp.Unmarshal(b.aS, orig, segment, false)
		if err != nil {
			return
		}
		if !c.sInitSet {
			c.sInitSet = true
			c.seqSInit = seg.Seq
			if mss, ok := seg.MSS(); ok {
				c.mssS = mss
			} else {
				c.mssS = defaultMSS
			}
			c.synWinS = seg.Window
		}
		c.winS = seg.Window
		if flags.Has(tcp.FlagACK) {
			c.ackS = seg.Ack
			c.ackSSet = true
		}
		b.maybeSendCombinedSyn(c)

	case flags.Has(tcp.FlagRST):
		if b.cfg.ValidateSeq && c.deltaKnown &&
			!tcp.RawSeq(segment).InWindow(c.sndMax.Add(-seqHorizon), 2*seqHorizon) {
			// A diverted RST is forged unless it lands near the release
			// point: the secondary resets in its own sequence space, which
			// the bridge tracks as sndMax.
			b.m.seqInvalidDrops.Inc()
			return
		}
		b.forwardRST(c, segment, false)

	default:
		if !c.deltaKnown {
			return
		}
		if flags.Has(tcp.FlagACK) {
			c.ackS = tcp.RawAck(segment)
			c.ackSSet = true
		}
		c.winS = tcp.RawWindow(segment)
		b.ingestServerSegment(c, tcp.RawSeq(segment), tcp.RawPayload(segment), flags, false)
		b.pump(c)
	}
}

// ingestServerSegment handles a data-bearing (or FIN-bearing) segment from
// either replica, already expressed in the secondary's sequence space.
func (b *PrimaryBridge) ingestServerSegment(c *pconn, sSeq tcp.Seq, payload []byte, flags tcp.Flags, fromPrimary bool) {
	if flags.Has(tcp.FlagFIN) {
		fin := sSeq.Add(len(payload))
		if fromPrimary {
			c.pFin, c.pFinSet = fin, true
		} else {
			c.sFin, c.sFinSet = fin, true
		}
	}
	end := sSeq.Add(len(payload))
	if flags.Has(tcp.FlagFIN) {
		end = end.Add(1)
	}
	if (len(payload) > 0 || flags.Has(tcp.FlagFIN)) && end.Leq(c.sndMax) {
		// A retransmission of bytes already released: the bridge receives
		// only a single copy, so it must send it immediately (section 4).
		b.stats.RetransmissionsForwarded++
		// payload aliases the inbound frame's private copy; emitToClient
		// marshals it into a packet buffer before returning, so no copy.
		out := &b.emitSeg
		*out = tcp.Segment{
			Seq:     sSeq,
			Ack:     c.minAck(b.degraded),
			Flags:   tcp.FlagACK | tcp.FlagPSH,
			Window:  c.minWin(b.degraded),
			Payload: payload,
		}
		if flags.Has(tcp.FlagFIN) {
			out.Flags |= tcp.FlagFIN
		}
		b.emitToClient(c, out)
		return
	}
	if len(payload) > 0 {
		q := &c.sq
		if fromPrimary {
			q = &c.pq
		}
		// Insert trims duplicates below the floor, so the gauge tracks the
		// realized growth rather than the raw payload length.
		before := q.Len()
		if q.Insert(sSeq, payload, queueSpan) > 0 {
			// Bytes further past the release point than any unscaled window
			// reaches: no replica sent this.
			b.m.seqInvalidDrops.Inc()
		}
		b.m.queueBytes.Add(int64(q.Len() - before))
	}
}

// pump constructs new client segments from matching queued payload
// (Figure 2) and forwards acknowledgment/window advances.
func (b *PrimaryBridge) pump(c *pconn) {
	if !c.deltaKnown {
		return
	}
	mss := c.effMSS()
	for {
		if n := min(c.pq.Ready(), c.sq.Ready(), mss); n > 0 {
			sb := c.sq.Peek(n, &b.wrapS)
			if b.cfg.VerifyReplicaOutput && !bytes.Equal(c.pq.Peek(n, &b.wrapP), sb) {
				b.stats.Divergences++
				if b.OnDivergence != nil {
					b.OnDivergence(c.key, c.sndMax)
				}
			}
			b.m.matchedBytes.Add(int64(n))
			b.releaseData(c, sb, false)
			continue
		}
		if b.finsMatchedAt(c, c.sndMax) && !c.finSent {
			b.releaseFin(c, false)
			continue
		}
		break
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
	if c.pq.Cap()+c.sq.Cap() != 0 && c.pq.Len()+c.sq.Len() == 0 {
		c.pq.Release()
		c.sq.Release()
	}
}

// releaseData sends payload — bytes a queue's Peek returned, read in place
// — to the client as one segment at the release point and advances both
// queues past it, with the FIN folded in when the stream ends there.
// Advance only moves the floors, so payload stays intact until
// emitToClient has marshalled it; the rings go back to the store later, in
// the caller (parkQueues), once drained.
func (b *PrimaryBridge) releaseData(c *pconn, payload []byte, degraded bool) {
	out := &b.emitSeg
	*out = tcp.Segment{
		Seq:     c.sndMax,
		Ack:     c.minAck(degraded),
		Flags:   tcp.FlagACK | tcp.FlagPSH,
		Window:  c.minWin(degraded),
		Payload: payload,
	}
	b.qAdvance(c, len(payload))
	c.sndMax = c.sndMax.Add(len(payload))
	if b.finsMatchedAt(c, c.sndMax) && c.pq.Len() == 0 && (degraded || c.sq.Len() == 0) {
		out.Flags |= tcp.FlagFIN
		c.finSent = true
		c.finSeq = c.sndMax
		c.sndMax = c.sndMax.Add(1)
	}
	b.emitToClient(c, out)
}

// releaseFin sends the servers' FIN on its own, at the release point.
func (b *PrimaryBridge) releaseFin(c *pconn, degraded bool) {
	out := &b.emitSeg
	*out = tcp.Segment{
		Seq:    c.sndMax,
		Ack:    c.minAck(degraded),
		Flags:  tcp.FlagACK | tcp.FlagFIN,
		Window: c.minWin(degraded),
	}
	c.finSent = true
	c.finSeq = c.sndMax
	c.sndMax = c.sndMax.Add(1)
	b.emitToClient(c, out)
}

func (b *PrimaryBridge) finsMatchedAt(c *pconn, at tcp.Seq) bool {
	if c.finSent {
		return false
	}
	if b.degraded {
		return c.pFinSet && c.pFin == at
	}
	return c.pFinSet && c.sFinSet && c.pFin == at && c.sFin == at
}

func (c *pconn) minAck(degraded bool) tcp.Seq {
	switch {
	case degraded || !c.ackSSet:
		return c.ackP
	case !c.ackPSet:
		return c.ackS
	default:
		return tcp.MinSeq(c.ackP, c.ackS)
	}
}

func (c *pconn) minWin(degraded bool) uint16 {
	if degraded {
		return c.winP
	}
	return min(c.winP, c.winS)
}

// maybeEmitAck constructs a payload-less segment when the combined
// acknowledgment advances (or the combined window reopens), preventing the
// deadlock the paper describes when the server applications send no data.
func (b *PrimaryBridge) maybeEmitAck(c *pconn) {
	if !c.combinedSynSent {
		return
	}
	if !b.degraded && !(c.ackPSet && c.ackSSet) {
		return
	}
	if b.degraded && !c.ackPSet {
		return
	}
	minAck := c.minAck(b.degraded)
	minWin := c.minWin(b.degraded)
	needAck := !c.lastAckValid || minAck.Greater(c.lastAckSent)
	winDelta := int(minWin) - int(c.lastWinSent)
	needWin := winDelta > 0 && (c.lastWinSent == 0 || winDelta >= c.effMSS())
	if !needAck && !needWin {
		return
	}
	b.stats.EmptyAcks++
	out := &b.emitSeg
	*out = tcp.Segment{
		Seq:    c.sndMax,
		Ack:    minAck,
		Flags:  tcp.FlagACK,
		Window: minWin,
	}
	b.emitToClient(c, out)
}

// maybeSendCombinedSyn emits the SYN (or SYN-ACK) the client sees, once
// both replicas' SYNs are known: sequence number in the secondary's space,
// MSS and window the minimum of the two (section 7).
func (b *PrimaryBridge) maybeSendCombinedSyn(c *pconn) {
	if !c.pInitSet || !c.sInitSet {
		return
	}
	if !c.combinedSynSent {
		c.delta = c.seqPInit - c.seqSInit
		c.deltaKnown = true
		c.sndMax = c.seqSInit.Add(1)
		c.pq.Reset(c.sndMax)
		c.sq.Reset(c.sndMax)
	}
	mss := c.effMSS()
	seg := &tcp.Segment{
		Seq:     c.seqSInit,
		Flags:   tcp.FlagSYN,
		Window:  min(c.synWinP, c.synWinS),
		Options: []tcp.Option{tcp.MSSOption(uint16(mss))},
	}
	if !c.serverInitiated {
		seg.Flags |= tcp.FlagACK
		seg.Ack = c.minAck(b.degraded)
	}
	c.combinedSynSent = true
	b.emitToClient(c, seg)
}

// adoptPrimaryAsSecondary handles connections still establishing when the
// secondary fails: the primary's own SYN stands in for the missing
// secondary's, making Delta-seq zero for this connection.
func (b *PrimaryBridge) adoptPrimaryAsSecondary(c *pconn) {
	c.sInitSet = true
	c.seqSInit = c.seqPInit
	c.mssS = c.mssP
	c.synWinS = c.synWinP
	c.winS = c.winP
	if c.ackPSet {
		c.ackS = c.ackP
		c.ackSSet = true
	}
}

func (b *PrimaryBridge) forwardRST(c *pconn, segment []byte, fromPrimary bool) {
	seq := tcp.RawSeq(segment)
	if fromPrimary {
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

func (b *PrimaryBridge) emitToClient(c *pconn, seg *tcp.Segment) {
	seg.SrcPort = c.key.LocalPort()
	seg.DstPort = c.key.PeerPort()
	// Marshal straight into a pooled packet buffer: one copy of the
	// payload, and the emit function forwards the buffer without another.
	pkt := netbuf.Get()
	copy(tcp.MarshalReserve(pkt, seg, len(seg.Payload)), seg.Payload)
	tcp.SealChecksum(b.aP, c.key.PeerAddr(), pkt.Bytes())
	b.stats.SegmentsToClient++
	b.m.releasedBytes.Add(int64(len(seg.Payload)))
	if seg.Flags.Has(tcp.FlagACK) {
		c.lastAckSent = seg.Ack
		c.lastAckValid = true
		c.lastWinSent = seg.Window
	}
	b.emit(c.key.PeerAddr(), pkt)
}

// synthesizeAck builds and sends a bare acknowledgment on behalf of a
// vanished connection (section 8's late-FIN handling). The datagram carries
// srcAddr as its source, which lets the bridge answer the secondary's FIN
// retransmissions as if the client had.
func (b *PrimaryBridge) synthesizeAck(srcAddr ipv4.Addr, srcPort uint16, dstAddr ipv4.Addr, dstPort uint16, seq, ack tcp.Seq) {
	seg := &b.emitSeg
	*seg = tcp.Segment{
		SrcPort: srcPort,
		DstPort: dstPort,
		Seq:     seq,
		Ack:     ack,
		Flags:   tcp.FlagACK,
		Window:  65535,
	}
	pkt := netbuf.Get()
	tcp.MarshalReserve(pkt, seg, 0)
	tcp.SealChecksum(srcAddr, dstAddr, pkt.Bytes())
	_ = b.host.SendIPFastBuf(srcAddr, dstAddr, ipv4.ProtoTCP, pkt)
}

// maybeGC deletes the connection record once both directions are fully
// closed (section 8): the servers' FIN has been acknowledged by the client
// and the client's FIN has been acknowledged by both servers.
func (b *PrimaryBridge) maybeGC(c *pconn) {
	if !(c.finSent && c.finAckedByCl && c.clientFinSeen) {
		return
	}
	if !c.minAck(b.degraded).Geq(c.clientFinEnd) {
		return
	}
	b.removeConn(c)
}

// qAdvance discards n matched bytes from both queues and keeps the queue
// gauge in step. The secondary queue may hold fewer than n bytes (degraded
// drain), so the gauge moves by the realized shrinkage, not 2n.
func (b *PrimaryBridge) qAdvance(c *pconn, n int) {
	before := c.pq.Len() + c.sq.Len()
	c.pq.Advance(n)
	c.sq.Advance(n)
	b.m.queueBytes.Add(int64(c.pq.Len() + c.sq.Len() - before))
}

func (b *PrimaryBridge) removeConn(c *pconn) {
	idx, ok := b.conns.Get(uint64(c.key))
	if !ok || b.slots.At(idx) != c {
		return
	}
	b.lru.Remove(idx)
	b.conns.Delete(uint64(c.key))
	b.stats.ConnsClosed++
	b.m.queueBytes.Add(int64(-(c.pq.Len() + c.sq.Len())))
	c.pq.Release()
	c.sq.Release()
	b.slots.Free(idx) // zeroes the record
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
			if c.pInitSet && !c.sInitSet {
				b.adoptPrimaryAsSecondary(c)
				b.maybeSendCombinedSyn(c)
			}
			continue
		}
		// Step 1: drain the primary output queue into new segments, through
		// pump's emit path: a takeover allocates nothing per segment.
		mss := c.effMSS()
		for n := c.pq.Ready(); n > 0; n = c.pq.Ready() {
			b.releaseData(c, c.pq.Peek(min(n, mss), &b.wrapP), true)
		}
		if b.finsMatchedAt(c, c.sndMax) && !c.finSent {
			b.releaseFin(c, true)
		}
		c.parkQueues()
		b.maybeEmitAck(c)
	}
}
