package core

import (
	"errors"
	"fmt"
	"slices"

	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// origDstOptionLen is the wire overhead of the original-destination option
// block (two alignment NOPs + kind + length + IPv4 address).
const origDstOptionLen = 8

// SecondaryStats counts the secondary bridge's work.
type SecondaryStats struct {
	SnoopedIn      int64 // client segments captured promiscuously and translated
	DivertedOut    int64 // locally generated segments diverted to the primary
	TakenOver      int64 // connections re-keyed to the primary address
	FlowsEvicted   int64 // flow-cache entries evicted by the flow cap
	MalformedDrops int64 // snooped frames with an inconsistent data offset
}

// SecondaryBridge is the bridge sublayer on the secondary server S.
//
// In normal operation it (a) receives all of the client's datagrams via the
// NIC's promiscuous mode, replaces the destination address aP with aS and
// passes them up so S's TCP layer believes the client sent them directly to
// S, and (b) intercepts every TCP segment S's layer addresses to a client,
// replaces the destination with aP, and records the original destination in
// a TCP header option (paper section 3.1).
//
// On primary failure, Takeover runs the five-step procedure of section 5.
//
// A backup that is not the last of a daisy chain ("Higher degrees of
// replication can be achieved by daisy-chaining multiple backup servers",
// section 1) is the same bridge with a matcher behind it: toward the client
// it snoops and translates as above; its TCP layer's output is first matched
// against the next backup's diverted stream, and the merged segments are
// what it diverts upstream. The merged stream carries ack = min and
// win = min of the two, so the upstream bridge's minimum over (its own, the
// merged stream) covers every replica below it; the composition needs no
// new protocol.
type SecondaryBridge struct {
	host    *netstack.Host
	ifIndex int
	aP, aS  ipv4.Addr
	// upstream is where diverted segments go: the primary, or — in a daisy
	// chain — the next backup up the chain. Defaults to aP.
	upstream ipv4.Addr
	sel      *Selector
	// matcher, on a chain's interior backup, matches this host's TCP output
	// against the next backup's stream before it is diverted; nil on a tail.
	matcher *PrimaryBridge

	active bool
	// flows caches the per-tuple snoop/divert decision: the selector
	// verdict and, for failover flows, the precomputed original-destination
	// option block. Both hooks normalize a segment to the same TupleKey, so
	// steady-state segments in either direction pay a single table hit
	// instead of up to three selector probes. Entries self-invalidate when
	// the selector configuration changes. The table maps keys to slot
	// indices in fslots; records live by value in 32-record chunks, so a
	// million snooped flows are some 31 000 allocations, not a million.
	flows  flowtab.Table
	fslots flowtab.Slab[sflow]
	// maxFlows bounds the flow cache (and the takeover records it holds):
	// when exceeded, the least-recently-touched flow is evicted. The
	// packed-uint64 keys make each entry cheap, but a SYN flood of spoofed
	// clients would otherwise grow the table without limit.
	maxFlows int
	lru      flowtab.LRU // recency of fslots slots

	// keyScratch is the reusable buffer for Takeover's sorted re-key walk.
	keyScratch []uint64

	stats SecondaryStats
	m     secondaryMetrics

	// spans, when non-nil, receives the first-diverted milestone per flow
	// (the bridge's TupleKey for an outbound diverted segment is bit-for-bit
	// the client stack's Tuple.SpanKey) and the fleet takeover mark.
	spans *obs.SpanRecorder
}

// sflow is a cached per-flow decision of the secondary bridge. Records live
// by value in the bridge's slab; the fields are ordered to pack into 32
// bytes with no padding.
type sflow struct {
	gen uint64 // selector generation the verdict was computed under

	// Owning key and slot index.
	key  TupleKey
	self int32

	match bool
	// rec marks a flow that matched at least once: at takeover its TCP
	// connection must be re-keyed to aP. The tuple itself is not stored —
	// it is fully derivable from the key plus the bridge's own address, so
	// the separate map[TupleKey]tcp.Tuple earlier revisions kept was pure
	// redundancy. The bit is sticky across selector reconfigurations,
	// matching the old table's never-unrecorded semantics.
	rec bool
	opt [8]byte // orig-dst option block carrying the client address
}

// flow returns the cached decision for key, classifying the flow on first
// sight (or after a selector change): the verdict is computed, the option
// block prebuilt, and — for failover flows — the connection marked for
// takeover re-keying.
func (b *SecondaryBridge) flow(key TupleKey) *sflow {
	var f *sflow
	if i, ok := b.flows.Get(uint64(key)); ok {
		f = b.fslots.At(i)
		b.lru.Touch(i)
		if f.gen == b.sel.Gen() {
			return f
		}
	} else {
		idx := b.fslots.Alloc()
		f = b.fslots.At(idx)
		f.key = key
		f.self = int32(idx)
		b.flows.Put(uint64(key), idx)
		b.lru.Push(idx)
		if b.flows.Len() > b.maxFlows {
			// The cap is at least one, so the oldest is another flow.
			old, _ := b.lru.Oldest()
			b.evict(b.fslots.At(old))
		}
	}
	f.gen = b.sel.Gen()
	f.match = b.sel.Match(key)
	if f.match {
		tcp.OrigDstOptionBlock(&f.opt, key.PeerAddr())
		f.rec = true
	}
	return f
}

// evict drops a flow-cache entry, including its takeover record. Active
// connections stay LRU-fresh (every snooped or diverted segment touches the
// entry), so what the cap sheds under a SYN flood is the flood's own
// single-segment flows.
func (b *SecondaryBridge) evict(f *sflow) {
	b.lru.Remove(uint32(f.self))
	b.flows.Delete(uint64(f.key))
	b.m.flowEvictions.Inc()
	b.fslots.Free(uint32(f.self))
}

// Flows returns the number of cached flow entries.
func (b *SecondaryBridge) Flows() int { return b.flows.Len() }

// NewSecondaryBridge installs the bridge on host's interface ifIndex. The
// interface snoops the primary's address in promiscuous receive mode. The
// flow cache holds at most maxFlows entries (zero selects defaultMaxFlows).
func NewSecondaryBridge(host *netstack.Host, ifIndex int, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector, maxFlows int) *SecondaryBridge {
	b := &SecondaryBridge{
		host:     host,
		ifIndex:  ifIndex,
		aP:       primaryAddr,
		aS:       secondaryAddr,
		upstream: primaryAddr,
		sel:      sel,
		active:   true,
		maxFlows: flowCap(maxFlows),
		m:        newSecondaryMetrics(nil, ""),
	}
	host.Iface(ifIndex).Snoop(primaryAddr)
	host.SetInboundHook(b.Inbound)
	host.SetOutboundHook(b.Outbound)
	return b
}

// NewInteriorBridge installs a secondary bridge with a matcher behind it on
// a backup that has a further backup, at nextAddr, down the chain. The flow
// cache and the matcher's table each hold at most maxFlows entries.
func NewInteriorBridge(host *netstack.Host, ifIndex int, primaryAddr, selfAddr, nextAddr ipv4.Addr, sel *Selector, maxFlows int) *SecondaryBridge {
	b := NewSecondaryBridge(host, ifIndex, primaryAddr, selfAddr, sel, maxFlows)
	b.matcher = NewPrimaryBridgeCore(host, selfAddr, nextAddr, sel, maxFlows)
	b.matcher.SetEmitFunc(b.emitMerged)
	return b
}

// Matcher returns the matching bridge behind an interior backup (stats,
// degradation); nil on a tail.
func (b *SecondaryBridge) Matcher() *PrimaryBridge { return b.matcher }

// Stats returns a copy of the bridge counters; the fields that have a
// series are views of it.
func (b *SecondaryBridge) Stats() SecondaryStats {
	s := b.stats
	s.SnoopedIn = b.m.snoopedIn.Value()
	s.DivertedOut = b.m.divertedOut.Value()
	s.FlowsEvicted = b.m.flowEvictions.Value()
	s.MalformedDrops = b.m.malformedDrops.Value()
	return s
}

// AttachSpans installs the fleet span recorder: the bridge marks each
// flow's first diverted segment and timestamps the takeover/ARP announce.
func (b *SecondaryBridge) AttachSpans(r *obs.SpanRecorder) { b.spans = r }

// Active reports whether the bridge is operating (false after takeover).
func (b *SecondaryBridge) Active() bool { return b.active }

// Inbound is the bridge's inbound interposition handler (exported for
// composition and benchmarks; NewSecondaryBridge installs it automatically).
// It implements the aP -> aS destination translation for incoming client
// segments. All other datagrams follow normal processing — which, on an
// interior backup, is the matcher's: it sees every datagram, the translated
// ones as segments addressed to its own address.
func (b *SecondaryBridge) Inbound(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
	verdict := netstack.VerdictPass
	if b.active && hdr.Dst == b.aP && len(payload) >= tcp.HeaderLen {
		if !tcp.RawSane(payload) {
			// A forged data offset on the snoop path would corrupt the MSS
			// clamp's option walk; drop rather than deliver a frame the local
			// TCP layer would reject anyway.
			b.m.malformedDrops.Inc()
			return netstack.VerdictDrop, hdr, payload
		}
		key := MakeTupleKey(hdr.Src, tcp.RawSrcPort(payload), tcp.RawDstPort(payload))
		if b.flow(key).match {
			// The payload is this station's private copy of the bits; patch the
			// pseudo-header checksum incrementally and rewrite the address.
			tcp.PatchPseudoAddr(payload, b.aP, b.aS)
			hdr.Dst = b.aS
			if tcp.RawFlags(payload).Has(tcp.FlagSYN) {
				// Leave MTU headroom for the original-destination option that the
				// outbound diversion adds to every segment this TCP layer emits.
				tcp.ClampRawMSS(payload, origDstOptionLen)
			}
			b.m.snoopedIn.Inc()
			verdict = netstack.VerdictDeliver
		}
	}
	if b.matcher == nil {
		return verdict, hdr, payload
	}
	// The address rewrite must reach the local stack even where the matcher
	// merely passes the segment through.
	v, hdr, payload := b.matcher.Inbound(ifIndex, hdr, payload)
	if v == netstack.VerdictPass {
		v = verdict
	}
	return v, hdr, payload
}

// Outbound is the bridge's outbound interposition handler: it diverts
// failover segments addressed to a client so they reach the primary bridge
// instead. On an interior backup the matcher takes them first, for as long
// as the host lives: what it merges comes back through emitMerged.
func (b *SecondaryBridge) Outbound(src, dst ipv4.Addr, segment []byte) bool {
	if b.matcher != nil {
		return b.matcher.Outbound(src, dst, segment)
	}
	if !b.active {
		return false
	}
	return b.divert(src, dst, segment)
}

// emitMerged is an interior backup's matcher output: diverted upstream like
// any backup's segments, or — once this host has taken over — sent to the
// client from the service address.
func (b *SecondaryBridge) emitMerged(client ipv4.Addr, pkt *netbuf.Buffer) {
	if !b.active {
		_ = b.host.SendIPFastBuf(b.aP, client, ipv4.ProtoTCP, pkt)
		return
	}
	b.divert(b.aS, client, pkt.Bytes())
	pkt.Release()
}

// divert sends a failover segment addressed to client upstream instead,
// with the original destination in a TCP option; false means the segment is
// not a failover connection's and was left alone.
func (b *SecondaryBridge) divert(src, client ipv4.Addr, segment []byte) bool {
	key := MakeTupleKey(client, tcp.RawDstPort(segment), tcp.RawSrcPort(segment))
	f := b.flow(key)
	if !f.match {
		return false
	}
	if b.spans != nil {
		b.spans.Mark(uint64(key), obs.SpanFirstDiverted, b.host.Scheduler().Now())
	}
	// Build the diverted segment straight into a pooled packet buffer: the
	// flow's precomputed option block is appended to the header copy and
	// the buffer is handed to the stack without a further copy.
	pkt := netbuf.Get()
	out, err := tcp.AppendOrigDstOption(pkt, segment, &f.opt)
	if err != nil {
		// Header options full; fall back to dropping (TCP will retransmit).
		pkt.Release()
		return true
	}
	// The segment arrives unsealed (or, from a chain's matcher, sealed for
	// the client): it is summed once, as it goes upstream.
	tcp.SealChecksum(src, b.upstream, out)
	b.m.divertedOut.Inc()
	_ = b.host.SendIPFastBuf(src, b.upstream, ipv4.ProtoTCP, pkt)
	return true
}

// SetUpstream redirects future diverted segments, e.g. when the backup this
// one diverted to fails and it re-attaches to the next live member up.
func (b *SecondaryBridge) SetUpstream(a ipv4.Addr) { b.upstream = a }

// rekeyConns moves the TCP connection of every key that still has one from
// local address from to local address to (section 5, step 5), in ascending
// key order — the flow tables' own order is not stable run to run. A
// connection whose new tuple is taken stays where it is; the rest still
// move. It returns how many moved and one error per connection that did not.
func rekeyConns(stack *tcp.Stack, keys []uint64, from, to ipv4.Addr) (moved int, errs []error) {
	slices.Sort(keys)
	for _, kk := range keys {
		key := TupleKey(kk)
		t := tcp.Tuple{
			LocalAddr:  from,
			LocalPort:  key.LocalPort(),
			RemoteAddr: key.PeerAddr(),
			RemotePort: key.PeerPort(),
		}
		if _, ok := stack.Lookup(t); !ok {
			continue // connection already closed
		}
		if err := stack.Rebind(t, to); err != nil {
			errs = append(errs, fmt.Errorf("takeover: %w", err))
			continue
		}
		moved++
	}
	return moved, errs
}

// Takeover executes the paper's section 5 procedure after the fault
// detector reports the primary failed:
//
//  1. stop sending TCP segments addressed to the client,
//  2. disable the promiscuous receive mode,
//  3. disable the aP-to-aS translation for incoming segments,
//  4. disable the aC-to-aP translation for outgoing segments,
//  5. take over the primary's IP address,
//
// after which the bridge is disabled and the host behaves like a standard
// TCP server — or, with a matcher behind it, like the primary of the chain
// that is left. The connections the TCP layer established under aS are
// re-keyed to aP, and a gratuitous ARP is broadcast so the router rebinds
// aP to this host's MAC (the router's ARP processing latency forms part of
// the takeover window T).
//
// A connection that cannot be re-keyed (its aP tuple is already taken) does
// not stop the procedure: every other flow is re-keyed and the address is
// announced regardless. The failures are counted in
// bridge_takeover_errors_total and returned joined.
func (b *SecondaryBridge) Takeover() error {
	if !b.active {
		return nil
	}
	// Steps 1, 3, 4: a single flag gates both hooks and the output path.
	b.active = false
	// Step 2.
	b.host.Iface(b.ifIndex).Snoop(0)
	// Step 5.
	b.host.AddAddress(b.ifIndex, b.aP)
	if b.matcher != nil {
		// The matcher's client-facing identity becomes the service address:
		// merged segments now carry it as their source, and incoming client
		// segments (addressed to it) hit the acknowledgment translation.
		b.matcher.aP = b.aP
	}
	// Only flows that matched the selector have a connection to re-key.
	b.keyScratch = b.flows.AppendKeys(b.keyScratch[:0])
	keys := b.keyScratch[:0]
	for _, kk := range b.keyScratch {
		if i, ok := b.flows.Get(kk); ok && b.fslots.At(i).rec {
			keys = append(keys, kk)
		}
	}
	moved, errs := rekeyConns(b.host.TCP(), keys, b.aS, b.aP)
	b.stats.TakenOver += int64(moved)
	// Whatever happened above, the address is this host's now: the router
	// must learn it, or the flows that were re-keyed stall as well.
	if err := b.host.Iface(b.ifIndex).ARP().Announce(b.aP); err != nil {
		errs = append(errs, fmt.Errorf("takeover: announce %s: %w", b.aP, err))
	}
	b.m.countTakeoverErrors(len(errs))
	b.spans.MarkTakeover(b.host.Scheduler().Now())
	// Resume sending: kick retransmission of anything lost during the
	// reconfiguration by letting the TCP timers run; nothing else to do.
	return errors.Join(errs...)
}
