// Package adversary models an attacker station on one of the testbed's
// Ethernet segments: a rogue NIC that snoops the medium promiscuously,
// learns the L2/L3 bindings of the stations around it, and injects forged
// frames — TCP segments with spoofed addresses and gratuitous ARP
// announcements — without participating in any protocol itself.
//
// The attacker is deliberately *off-path with respect to sequence numbers*:
// snooping is used only for address, port, and MAC discovery, while every
// forged sequence number is drawn from a seeded splittable PRNG. That is
// the classic blind in-LAN threat model the defences every scenario runs
// (the endpoints' in-window RST and SYN test, the bridge's in-window
// validation, ARP binding filters, the matchers' flow cap) are measured
// against in experiment E11. Everything is a function of the seed, so
// attack outcomes are reproducible and shard-invariant like every other
// experiment.
package adversary

import (
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Station is a rogue NIC attached to a segment. It snoops in promiscuous
// mode from the moment it is attached, and exposes raw injection
// primitives the attack models in attacks.go are built from.
type Station struct {
	sched *sim.Scheduler
	nic   *ethernet.NIC
	rng   *fault.Rand

	// macs is the learned IP-to-MAC map, harvested from snooped IPv4
	// traffic: the source side of a frame reveals the sender's binding and
	// the destination side the L2 next hop toward that address — exactly
	// what an attacker needs to aim forged unicast frames.
	macs map[ipv4.Addr]ethernet.MAC
	// flows records, per snooped TCP destination (addr, port), the last
	// peer seen talking to it — how the attacker discovers a victim
	// connection's ephemeral port without guessing.
	flows map[flowKey]Peer

	// Injected counts frames this station forged onto the wire.
	Injected int64
	// UnicastRx counts frames addressed to the rogue MAC itself — after a
	// successful ARP takeover, the victim's traffic shows up here.
	UnicastRx int64
	// Snooped counts every frame overheard on the segment.
	Snooped int64
}

// Attach places a rogue station with the given MAC on seg. The seed drives
// every random choice the station's attacks make; two stations with equal
// seeds forge identical frames.
func Attach(sched *sim.Scheduler, seg *ethernet.Segment, mac ethernet.MAC, seed uint64) *Station {
	st := &Station{
		sched: sched,
		rng:   fault.NewRand(seed),
		macs:  make(map[ipv4.Addr]ethernet.MAC),
		flows: make(map[flowKey]Peer),
	}
	st.nic = seg.Attach(mac)
	st.nic.SetPromiscuous(true)
	st.nic.SetHandler(st.onFrame)
	return st
}

// Rand derives an independent, label-split random stream from the
// station's seed, so each attack's draws are stable regardless of what
// else runs.
func (st *Station) Rand(label string) *fault.Rand { return st.rng.Split(label) }

// MACFor returns the learned hardware address for ip.
func (st *Station) MACFor(ip ipv4.Addr) (ethernet.MAC, bool) {
	m, ok := st.macs[ip]
	return m, ok
}

// flowKey identifies a snooped TCP destination.
type flowKey struct {
	addr ipv4.Addr
	port uint16
}

// Peer is the remote end of a snooped connection.
type Peer struct {
	Addr ipv4.Addr
	Port uint16
}

// PeerOf returns the last snooped peer of the service at (addr, port) —
// the victim connection an attack should aim at.
func (st *Station) PeerOf(addr ipv4.Addr, port uint16) (Peer, bool) {
	p, ok := st.flows[flowKey{addr, port}]
	return p, ok
}

// onFrame is the promiscuous snoop path: harvest bindings, count, release.
func (st *Station) onFrame(f ethernet.Frame) {
	st.Snooped++
	if f.Dst == st.nic.MAC() {
		st.UnicastRx++
	}
	if f.Type == ethernet.TypeIPv4 && len(f.Payload) >= ipv4.HeaderLen {
		src := ipv4.GetAddr(f.Payload[12:16])
		dst := ipv4.GetAddr(f.Payload[16:20])
		if !src.IsZero() && f.Src != (ethernet.MAC{}) {
			st.macs[src] = f.Src
		}
		if !dst.IsZero() && f.Dst != ethernet.Broadcast && f.Dst != (ethernet.MAC{}) {
			// The frame's L2 destination is the next hop toward dst on this
			// segment (the station itself or a router), which is exactly
			// where a forged frame for dst must be aimed.
			st.macs[dst] = f.Dst
		}
		// Every datagram in this simulation carries a 20-byte IPv4 header
		// (no IP options), so the TCP ports sit right behind it.
		if f.Payload[9] == ipv4.ProtoTCP && len(f.Payload) >= ipv4.HeaderLen+4 {
			t := f.Payload[ipv4.HeaderLen:]
			srcPort := uint16(t[0])<<8 | uint16(t[1])
			dstPort := uint16(t[2])<<8 | uint16(t[3])
			st.flows[flowKey{dst, dstPort}] = Peer{Addr: src, Port: srcPort}
		}
	}
	if f.Buf != nil {
		f.Buf.Release()
	}
}

// InjectTCP forges a TCP segment inside an IPv4 datagram with the given
// (spoofed) addresses and puts it on the wire, aimed at the learned next
// hop for dst. The L2 source is the spoofed sender's learned MAC when
// known, so the frame is indistinguishable from the victim's at every
// layer. Reports false when no next hop for dst has been snooped yet.
func (st *Station) InjectTCP(src, dst ipv4.Addr, seg *tcp.Segment) bool {
	dstMAC, ok := st.macs[dst]
	if !ok {
		return false
	}
	srcMAC, ok := st.macs[src]
	if !ok {
		srcMAC = st.nic.MAC()
	}
	payload := tcp.Marshal(src, dst, seg)
	dgram := ipv4.Marshal(ipv4.Header{
		TTL:      64,
		Protocol: ipv4.ProtoTCP,
		Src:      src,
		Dst:      dst,
	}, payload)
	if st.nic.Inject(ethernet.Frame{
		Dst:     dstMAC,
		Src:     srcMAC,
		Type:    ethernet.TypeIPv4,
		Payload: dgram,
	}) != nil {
		return false
	}
	st.Injected++
	return true
}

// InjectGratuitousARP broadcasts a forged gratuitous ARP claiming ip for
// the rogue station's own MAC — the exact frame the paper's legitimate IP
// takeover uses, which is why unauthenticated ARP lets any station steal a
// live connection's address.
func (st *Station) InjectGratuitousARP(ip ipv4.Addr) bool {
	return st.InjectARPAs(ip, st.nic.MAC())
}

// InjectARPAs broadcasts a gratuitous ARP binding ip to an arbitrary MAC.
func (st *Station) InjectARPAs(ip ipv4.Addr, mac ethernet.MAC) bool {
	pkt := marshalGratuitousARP(ip, mac)
	if st.nic.Inject(ethernet.Frame{
		Dst:     ethernet.Broadcast,
		Src:     mac,
		Type:    ethernet.TypeARP,
		Payload: pkt,
	}) != nil {
		return false
	}
	st.Injected++
	return true
}

// marshalGratuitousARP renders an ARP request with sender == target == ip,
// duplicated here rather than importing internal/arp so the attacker
// plausibly forges the bytes itself.
func marshalGratuitousARP(ip ipv4.Addr, mac ethernet.MAC) []byte {
	b := make([]byte, 28)
	b[0], b[1] = 0, 1 // hardware type: Ethernet
	b[2], b[3] = 0x08, 0x00
	b[4], b[5] = 6, 4
	b[6], b[7] = 0, 1 // OpRequest
	copy(b[8:14], mac[:])
	ipv4.PutAddr(b[14:18], ip)
	ipv4.PutAddr(b[24:28], ip)
	return b
}
