package core

import (
	"errors"
	"fmt"
	"slices"

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
	stats  SecondaryStats
	m      secondaryMetrics

	// spans, when non-nil, receives the first-diverted milestone per flow
	// (the bridge's TupleKey for an outbound diverted segment is bit-for-bit
	// the client stack's Tuple.SpanKey) and the fleet takeover mark.
	spans *obs.SpanRecorder
}

// NewSecondaryBridge installs the bridge on host's interface ifIndex. The
// interface snoops the primary's address in promiscuous receive mode. The
// bridge keeps no per-flow state: each segment's verdict is the selector's,
// and the connections to re-key at takeover are the TCP layer's own.
func NewSecondaryBridge(host *netstack.Host, ifIndex int, primaryAddr, secondaryAddr ipv4.Addr, sel *Selector) *SecondaryBridge {
	b := &SecondaryBridge{
		host:     host,
		ifIndex:  ifIndex,
		aP:       primaryAddr,
		aS:       secondaryAddr,
		upstream: primaryAddr,
		sel:      sel,
		active:   true,
		m:        newSecondaryMetrics(nil, ""),
	}
	host.Iface(ifIndex).Snoop(primaryAddr)
	host.SetInboundHook(b.Inbound)
	host.SetOutboundHook(b.Outbound)
	return b
}

// NewInteriorBridge installs a secondary bridge with a matcher behind it on
// a backup that has a further backup, at nextAddr, down the chain. The
// matcher's table holds at most maxFlows connections.
func NewInteriorBridge(host *netstack.Host, ifIndex int, primaryAddr, selfAddr, nextAddr ipv4.Addr, sel *Selector, maxFlows int) *SecondaryBridge {
	b := NewSecondaryBridge(host, ifIndex, primaryAddr, selfAddr, sel)
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
		if b.sel.Match(key) {
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
	if !b.sel.Match(key) {
		return false
	}
	if b.spans != nil {
		b.spans.Mark(uint64(key), obs.SpanFirstDiverted, b.host.Scheduler().Now())
	}
	// Build the diverted segment straight into a pooled packet buffer: the
	// option block carrying the client address follows the header copy and
	// the buffer is handed to the stack without a further copy.
	pkt := netbuf.Get()
	out, err := tcp.AppendOrigDstOption(pkt, segment, client)
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
// the takeover window T); the ARP module repeats it 2 s later while this
// host still owns aP, so one lost frame cannot strand the router.
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
	// The connections to re-key are the failover connections the TCP layer
	// holds under this host's own address, taken in ascending key order:
	// the demux table's own order is not stable run to run.
	stack := b.host.TCP()
	var keys []uint64
	for _, c := range stack.Conns() {
		t := c.Tuple()
		key := MakeTupleKey(t.RemoteAddr, t.RemotePort, t.LocalPort)
		if t.LocalAddr == b.aS && b.sel.Match(key) {
			keys = append(keys, uint64(key))
		}
	}
	slices.Sort(keys)
	var errs []error
	for _, k := range keys {
		key := TupleKey(k)
		t := tcp.Tuple{LocalAddr: b.aS, LocalPort: key.LocalPort(), RemoteAddr: key.PeerAddr(), RemotePort: key.PeerPort()}
		if err := stack.Rebind(t, b.aP); err != nil {
			errs = append(errs, fmt.Errorf("takeover: %w", err))
			continue
		}
		b.stats.TakenOver++
	}
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
