package core

import (
	"errors"
	"fmt"

	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// MiddleBridge realizes the paper's daisy-chaining remark ("Higher degrees
// of replication can be achieved by daisy-chaining multiple backup
// servers", section 1) for the intermediate server of a three-way chain
// head <- middle <- tail.
//
// The middle server composes the two bridge roles:
//
//   - Toward the client it behaves like a *secondary*: its NIC is
//     promiscuous, and client segments addressed to the service address
//     (the head's) are translated to its own address for its TCP layer.
//   - Toward the tail it behaves like a *primary*: it holds its own TCP
//     output, matches it against the tail's diverted stream, and produces
//     a merged stream in the tail's sequence space.
//   - The merged stream is not sent to the client; it is diverted — with
//     the original-destination option — to the head, whose own primary
//     bridge performs the final match.
//
// Because the merged stream carries ack = min(ackMiddle, ackTail) and
// win = min(...), the head's minimum over (its own, the merged stream)
// covers all three replicas; the composition needs no new protocol.
type MiddleBridge struct {
	host    *netstack.Host
	ifIndex int
	service ipv4.Addr // the client-facing address (initially the head's)
	self    ipv4.Addr
	head    ipv4.Addr
	sel     *Selector

	pb *PrimaryBridge // matches own output against the tail's stream

	active bool // diverting toward the head (false once promoted)
	// conns is the set of snooped failover connections (the re-key tuple is
	// derivable from the key plus the middle's own address, so only the key
	// set is stored). keyScratch backs PromoteToHead's sorted walk.
	conns      flowtab.Table
	keyScratch []uint64

	stats SecondaryStats
}

// NewMiddleBridge installs the composed bridge on the middle host.
// service is the address clients connect to (the head's); tail is the next
// backup down the chain.
func NewMiddleBridge(host *netstack.Host, ifIndex int, service, self, tail ipv4.Addr,
	sel *Selector, cfg PrimaryConfig) *MiddleBridge {
	b := &MiddleBridge{
		host:    host,
		ifIndex: ifIndex,
		service: service,
		self:    self,
		head:    service,
		sel:     sel,
		pb:      NewPrimaryBridgeCore(host, self, tail, sel, cfg),
		active:  true,
	}
	// The merged stream is diverted up the chain instead of sent to the
	// client.
	b.pb.SetEmitFunc(b.divertMerged)
	host.Iface(ifIndex).NIC().SetPromiscuous(true)
	host.SetInboundHook(b.inbound)
	host.SetOutboundHook(b.pb.Outbound)
	return b
}

// Primary exposes the inner matching bridge (stats, degradation).
func (b *MiddleBridge) Primary() *PrimaryBridge { return b.pb }

// Stats returns the secondary-role counters (snooped/diverted).
func (b *MiddleBridge) Stats() SecondaryStats { return b.stats }

// Active reports whether the middle is still diverting (false once it has
// been promoted to head).
func (b *MiddleBridge) Active() bool { return b.active }

// inbound chains the secondary-role translation in front of the inner
// primary bridge's demultiplexer.
func (b *MiddleBridge) inbound(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
	translated := false
	if b.active && hdr.Dst == b.service && len(payload) >= tcp.HeaderLen {
		key := MakeTupleKey(hdr.Src, tcp.RawSrcPort(payload), tcp.RawDstPort(payload))
		if b.sel.Match(key) {
			// Secondary role: client segment snooped promiscuously.
			tcp.PatchPseudoAddr(payload, b.service, b.self)
			hdr.Dst = b.self
			if tcp.RawFlags(payload).Has(tcp.FlagSYN) {
				tcp.ClampRawMSS(payload, origDstOptionLen)
			}
			b.stats.SnoopedIn++
			b.conns.Put(uint64(key), 1)
			// Fall through into the primary role, which translates the
			// acknowledgment into this TCP layer's sequence space and
			// delivers.
			translated = true
		}
	}
	verdict, h2, p2 := b.pb.Inbound(ifIndex, hdr, payload)
	if translated && verdict == netstack.VerdictPass {
		// The address rewrite must reach the local stack even though the
		// inner bridge merely passed the segment through.
		return netstack.VerdictDeliver, h2, p2
	}
	return verdict, h2, p2
}

// divertMerged forwards a merged client-bound segment up the chain with
// the original-destination option, exactly as a plain secondary would.
func (b *MiddleBridge) divertMerged(client ipv4.Addr, pkt *netbuf.Buffer) {
	if !b.active {
		// Promoted: the merged stream goes straight to the client.
		_ = b.host.SendIPFastBuf(b.pb.LocalAddr(), client, ipv4.ProtoTCP, pkt)
		return
	}
	var opt [8]byte
	tcp.OrigDstOptionBlock(&opt, client)
	out := netbuf.Get()
	diverted, err := tcp.AppendOrigDstOption(out, pkt.Bytes(), &opt)
	pkt.Release()
	if err != nil {
		out.Release()
		return // header full; upstream recovers by retransmission
	}
	tcp.PatchPseudoAddr(diverted, client, b.head)
	b.stats.DivertedOut++
	_ = b.host.SendIPFastBuf(b.self, b.head, ipv4.ProtoTCP, out)
}

// PromoteToHead runs the section 5 takeover for the middle server when the
// chain's head fails: it stops diverting, takes over the service address,
// re-keys its TCP connections, and from then on behaves as the head of a
// shortened chain whose (sole) backup is the old tail. Like Takeover it
// runs to the end and returns the failed steps joined.
func (b *MiddleBridge) PromoteToHead() error {
	if !b.active {
		return nil
	}
	b.active = false
	b.host.Iface(b.ifIndex).NIC().SetPromiscuous(false)
	b.host.AddAddress(b.ifIndex, b.service)
	// The inner bridge's client-facing identity becomes the service
	// address: merged segments now carry it as their source, and incoming
	// client segments (addressed to it) hit the acknowledgment translation.
	b.pb.SetLocalAddr(b.service)
	b.keyScratch = b.conns.AppendKeys(b.keyScratch[:0])
	moved, errs := rekeyConns(b.host.TCP(), b.keyScratch, b.self, b.service)
	b.stats.TakenOver += int64(moved)
	if err := b.host.Iface(b.ifIndex).ARP().Announce(b.service); err != nil {
		errs = append(errs, fmt.Errorf("promote: announce %s: %w", b.service, err))
	}
	return errors.Join(errs...)
}

// HandleTailFailure degrades the inner bridge per section 6; the middle
// keeps feeding its own (still diverted) stream up the chain.
func (b *MiddleBridge) HandleTailFailure() { b.pb.HandleSecondaryFailure() }
