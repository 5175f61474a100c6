// Package netstack assembles simulated hosts: NICs, ARP, IPv4 routing and
// forwarding, and a TCP layer, wired together the way the paper describes —
// with an interposition point between TCP and IP where the failover bridge
// sublayer lives. Routers are hosts with forwarding enabled; they operate
// purely at the IP layer and have no knowledge of TCP.
package netstack

import (
	"errors"
	"fmt"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Profile models per-packet host processing costs. These calibrate the
// simulation against the paper's testbed, where stack-traversal time (not
// wire time) dominates small-packet latency.
type Profile struct {
	// StackIngress is charged between frame arrival and protocol processing
	// (NIC interrupt, driver, IP input).
	StackIngress time.Duration
	// StackEgress is charged between a send decision and frame transmission
	// (system call, IP output, driver).
	StackEgress time.Duration
	// ForwardDelay is a router's per-datagram forwarding cost.
	ForwardDelay time.Duration
	// BridgeDelay is the bridge sublayer's per-segment cost on the send
	// path (segment construction, checksum updates).
	BridgeDelay time.Duration
	// BridgeInbound is the bridge sublayer's per-segment cost on the
	// receive path (demultiplexing, address translation, queue matching);
	// charged only on hosts with an inbound hook installed.
	BridgeInbound time.Duration
	// JitterMax adds a uniformly random extra delay in [0, JitterMax) to
	// each ingress/egress charge, modeling OS scheduling noise. Without it
	// the simulation is so deterministic that medians equal maxima.
	JitterMax time.Duration
	// CopyPerKB is the per-kilobyte processing cost (checksum plus copy)
	// added to every ingress/egress/bridge charge. On the paper's 566 MHz
	// servers this, not the 100 Mbit/s wire, bounds bulk throughput.
	CopyPerKB time.Duration
	// NAPIBudget enables batched frame delivery when > 1: a TCP frame
	// arriving while an earlier same-flow frame still awaits its ingress
	// completion joins that pending delivery — coalesced byte-for-byte into
	// the pending segment when GRO conditions hold (see tcp.CanCoalesceRaw),
	// otherwise chained — up to NAPIBudget frames per delivery. Each frame
	// still pays its full ingress CPU charge; batching only defers delivery
	// of earlier frames to the batch's completion, like interrupt
	// coalescing. 0 (the default) preserves per-frame delivery exactly.
	NAPIBudget int
}

// perByteCost returns the size-dependent part of a packet's service time.
func (p Profile) perByteCost(payloadLen int) time.Duration {
	if p.CopyPerKB <= 0 {
		return 0
	}
	return time.Duration(int64(p.CopyPerKB) * int64(payloadLen) / 1024)
}

// DefaultProfile approximates the paper's 566 MHz Pentium III servers;
// values are calibrated so the standard-TCP connection setup time lands
// near the paper's 294 us median (see EXPERIMENTS.md).
func DefaultProfile() Profile {
	return Profile{
		StackIngress:  40 * time.Microsecond,
		StackEgress:   40 * time.Microsecond,
		ForwardDelay:  15 * time.Microsecond,
		BridgeDelay:   60 * time.Microsecond,
		BridgeInbound: 35 * time.Microsecond,
		JitterMax:     8 * time.Microsecond,
		CopyPerKB:     68 * time.Microsecond,
	}
}

// InVerdict is an inbound hook's decision.
type InVerdict int

// Inbound hook decisions.
const (
	// VerdictPass continues normal processing with the original datagram.
	VerdictPass InVerdict = iota + 1
	// VerdictDeliver delivers the (possibly rewritten) datagram to the
	// local stack even if its destination is not a local address.
	VerdictDeliver
	// VerdictDrop discards the datagram.
	VerdictDrop
)

// InboundHook inspects every received TCP datagram — including those a
// snooping interface captures for its snooped address (Iface.Snoop) — before
// normal IP processing. It may rewrite the header and payload (the secondary
// bridge's address translation) or consume the datagram (the primary
// bridge's demultiplexer).
type InboundHook func(ifIndex int, hdr ipv4.Header, payload []byte) (InVerdict, ipv4.Header, []byte)

// OutboundHook interposes on segments the local TCP layer emits, before IP
// encapsulation. The segment is not yet sealed: its checksum field is zero.
// Returning true consumes the segment (the bridge will emit its own
// datagrams instead, sealing each); false passes it on to be sealed and
// sent.
type OutboundHook func(src, dst ipv4.Addr, segment []byte) bool

// ErrHostDown is returned when sending from a crashed host.
var ErrHostDown = errors.New("netstack: host is down")

// Iface is one attached network interface.
type Iface struct {
	host  *Host
	index int
	nic   *ethernet.NIC
	arp   *arp.Module
	addrs []ipv4.Addr
	snoop ipv4.Addr // the foreign destination captured promiscuously, if any
}

// NIC exposes the underlying Ethernet interface.
func (i *Iface) NIC() *ethernet.NIC { return i.nic }

// Snoop puts the interface's NIC in promiscuous receive mode to capture the
// datagrams addressed to addr, as the paper's secondary captures the
// client's segments to the primary (section 3); the zero address turns
// promiscuous mode off again (section 5, step 2). What else the NIC
// overhears is dropped on arrival unless the host owns, forwards or taps it
// (see frameIn).
func (i *Iface) Snoop(addr ipv4.Addr) {
	i.snoop = addr
	i.nic.SetPromiscuous(!addr.IsZero())
}

// ARP exposes the interface's ARP module (cache seeding, announcements).
func (i *Iface) ARP() *arp.Module { return i.arp }

// Addr returns the interface's primary address.
func (i *Iface) Addr() ipv4.Addr {
	if len(i.addrs) == 0 {
		return 0
	}
	return i.addrs[0]
}

// Host is a simulated computer.
type Host struct {
	name    string
	sched   *sim.Scheduler
	profile Profile

	ifaces     []*Iface
	routes     ipv4.Table
	forwarding bool
	alive      bool
	ipID       uint16

	tcpCfg   tcp.Config
	tcpStack *tcp.Stack

	inHook    InboundHook
	outHook   OutboundHook
	protocols map[uint8][]func(hdr ipv4.Header, payload []byte)

	// The host CPU is a single serial resource (the paper's servers are
	// uniprocessors): receive and transmit processing contend for it.
	cpuBusyUntil time.Duration

	// Free list of packet events: every scheduled stack crossing (ingress,
	// egress, forward) reuses these instead of allocating a closure.
	pktFree sim.FreeList[pktEvent]

	// inPend holds, per TCP flow, the ingress delivery still awaiting its
	// completion time, so NAPI batching (Profile.NAPIBudget) can coalesce
	// later same-flow frames into it: pendBuckets chains of heads linked
	// through pktEvent.hnext, at most one head per flow. Nil until the
	// first batched frame, so a host that does not batch pays nothing.
	inPend []*pktEvent

	// taps observe every datagram the host receives (post-ingress-delay)
	// and sends. A fan-out list, not a single func: the trace facility, the
	// obs flight recorder, and tests can all watch one host at once.
	taps []PacketTapFunc
	// txTaps observe only what the host sends, so the overheard drop holds.
	txTaps []PacketTapFunc

	// napiBatch records the frame count of each batched TCP ingress
	// delivery (a discard handle until AttachObs).
	napiBatch obs.Histogram
	// obsReg, when set, is handed to the TCP stack at creation.
	obsReg *obs.Registry
}

// PacketTapFunc observes one datagram from the host's viewpoint; dir is
// "rx" or "tx".
type PacketTapFunc func(dir string, hdr ipv4.Header, payload []byte)

// AddPacketTap appends a packet observer. Taps run in attachment order and
// must not retain the payload slice past the call (it may be a pooled
// buffer's bytes).
func (h *Host) AddPacketTap(f PacketTapFunc) { h.taps = append(h.taps, f) }

// AddTxTap appends an observer of the datagrams the host transmits, on the
// terms of AddPacketTap; unlike a packet tap it keeps overheard frames
// dropped on arrival, so it moves no event.
func (h *Host) AddTxTap(f PacketTapFunc) { h.txTaps = append(h.txTaps, f) }

// AttachRecorder taps the host into an obs flight recorder: every datagram
// the host receives or sends is captured (the recorder copies, so the
// pooled payload is not retained).
func (h *Host) AttachRecorder(rec *obs.Recorder) {
	name, sched := h.name, h.sched
	h.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
		rec.Record(sched.Now(), name, dir, hdr, payload)
	})
}

// tap fans one datagram out to every attached observer.
func (h *Host) tap(dir string, hdr ipv4.Header, payload []byte) {
	for _, f := range h.taps {
		f(dir, hdr, payload)
	}
}

// NewHost creates a host.
func NewHost(sched *sim.Scheduler, name string, profile Profile) *Host {
	return &Host{
		name:      name,
		sched:     sched,
		profile:   profile,
		alive:     true,
		protocols: make(map[uint8][]func(ipv4.Header, []byte)),
		napiBatch: (*obs.Registry)(nil).Histogram("net_napi_batch_frames", napiBatchBounds),
	}
}

// napiBatchBounds bucket the NAPI delivery sizes; the top bucket is wide
// open so oversized budgets still land somewhere meaningful.
var napiBatchBounds = []int64{1, 2, 4, 8, 16, 32}

// AttachObs resolves the host's metric handles against reg (labeled with
// the host's name). The TCP stack's handles attach when the stack is
// created — AttachObs deliberately does not create it, so SetTCPConfig
// calls after scenario construction still take effect.
func (h *Host) AttachObs(reg *obs.Registry) {
	h.obsReg = reg
	h.napiBatch = reg.Histogram(
		fmt.Sprintf("net_napi_batch_frames{host=%q}", h.name), napiBatchBounds)
	if h.tcpStack != nil {
		h.tcpStack.AttachObs(reg, h.name)
	}
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Scheduler returns the simulation scheduler.
func (h *Host) Scheduler() *sim.Scheduler { return h.sched }

// Profile returns the host's processing-cost profile.
func (h *Host) Profile() Profile { return h.profile }

// Alive reports whether the host is running.
func (h *Host) Alive() bool { return h.alive }

// SetForwarding turns the host into a router.
func (h *Host) SetForwarding(on bool) { h.forwarding = on }

// SetTCPConfig sets the TCP configuration; it must be called before the
// first use of TCP.
func (h *Host) SetTCPConfig(cfg tcp.Config) { h.tcpCfg = cfg }

// TCP returns the host's TCP stack, creating it on first use.
func (h *Host) TCP() *tcp.Stack {
	if h.tcpStack == nil {
		h.tcpStack = tcp.NewStack(h.sched, h.tcpCfg, h.tcpOutput, h.sourceAddrFor)
		if h.obsReg != nil {
			h.tcpStack.AttachObs(h.obsReg, h.name)
		}
	}
	return h.tcpStack
}

// AttachIface connects the host to a segment with the given MAC and primary
// address, installing an on-link route for the prefix.
func (h *Host) AttachIface(seg *ethernet.Segment, mac ethernet.MAC, addr ipv4.Addr, prefix ipv4.Prefix) *Iface {
	nic := seg.Attach(mac)
	ifc := &Iface{host: h, index: len(h.ifaces), nic: nic}
	if !addr.IsZero() {
		ifc.addrs = append(ifc.addrs, addr)
	}
	ifc.arp = arp.New(h.sched, nic, 0,
		func(ip ipv4.Addr) bool { return h.alive && ifc.hasAddr(ip) },
		func() ipv4.Addr { return ifc.Addr() })
	nic.SetHandler(func(f ethernet.Frame) { h.frameIn(ifc, f) })
	h.ifaces = append(h.ifaces, ifc)
	h.routes.Add(ipv4.Route{Dst: prefix, IfIndex: ifc.index})
	return ifc
}

// SetARPDelay replaces an interface's ARP module with one whose table
// reflects a received packet delay after it arrives (used to model the
// router's ARP-processing latency).
func (h *Host) SetARPDelay(ifIndex int, delay time.Duration) {
	ifc := h.ifaces[ifIndex]
	ifc.arp = arp.New(h.sched, ifc.nic, delay,
		func(ip ipv4.Addr) bool { return h.alive && ifc.hasAddr(ip) },
		func() ipv4.Addr { return ifc.Addr() })
}

func (i *Iface) hasAddr(a ipv4.Addr) bool {
	for _, x := range i.addrs {
		if x == a {
			return true
		}
	}
	return false
}

// Iface returns the interface at index.
func (h *Host) Iface(index int) *Iface { return h.ifaces[index] }

// AddAddress adds an address to an interface (IP takeover), ahead of the
// others: the connections the host opens from now on are the service's.
func (h *Host) AddAddress(ifIndex int, addr ipv4.Addr) {
	ifc := h.ifaces[ifIndex]
	if !ifc.hasAddr(addr) {
		ifc.addrs = append([]ipv4.Addr{addr}, ifc.addrs...)
	}
}

// AddRoute installs a route.
func (h *Host) AddRoute(dst ipv4.Prefix, nextHop ipv4.Addr, ifIndex int) {
	h.routes.Add(ipv4.Route{Dst: dst, NextHop: nextHop, IfIndex: ifIndex})
}

// Owns reports whether addr is local to the host.
func (h *Host) Owns(addr ipv4.Addr) bool {
	for _, ifc := range h.ifaces {
		if ifc.hasAddr(addr) {
			return true
		}
	}
	return false
}

// SetInboundHook installs the bridge's inbound interposition point.
func (h *Host) SetInboundHook(hook InboundHook) { h.inHook = hook }

// SetOutboundHook installs the bridge's outbound interposition point.
func (h *Host) SetOutboundHook(hook OutboundHook) { h.outHook = hook }

// RegisterProtocol installs a handler for a non-TCP IP protocol (the fault
// detector's heartbeats use this). Multiple handlers per protocol are
// supported; each receives every datagram.
func (h *Host) RegisterProtocol(proto uint8, handler func(hdr ipv4.Header, payload []byte)) {
	h.protocols[proto] = append(h.protocols[proto], handler)
}

// Crash fail-stops the host, TCP layer included: interfaces go down and all
// future I/O is dropped. A crashed host stays down.
func (h *Host) Crash() {
	h.alive = false
	for _, ifc := range h.ifaces {
		ifc.nic.SetUp(false)
	}
	if h.tcpStack != nil {
		h.tcpStack.Crash()
	}
}

// --- receive path -----------------------------------------------------------

// pktEvent carries one datagram across a scheduled stack crossing (ingress,
// egress, forward) without a per-packet closure allocation. Events live on
// the host's free list; buf is the pooled buffer backing payload, if any.
//
// With NAPI batching, an ingress pktEvent can head a chain: later same-flow
// frames link in through next, tail points at the chain's last element, and
// timer re-arms the head's delivery to the latest frame's ingress
// completion. Only the head is registered in the host's pending-flow table,
// and only while it can still take frames.
type pktEvent struct {
	h       *Host
	ifc     *Iface
	hdr     ipv4.Header
	payload []byte
	buf     *netbuf.Buffer

	next    *pktEvent
	tail    *pktEvent
	chained int // frames in the batch this event heads, 0 if it heads none
	timer   sim.Timer
	key     flowKey
	hnext   *pktEvent // next head in the same h.inPend bucket
	pending bool      // linked in h.inPend
	sumOK   bool      // payload's TCP checksum is known to verify
}

// flowKey identifies a TCP flow at ingress for NAPI batching.
type flowKey struct {
	src, dst     ipv4.Addr
	sport, dport uint16
}

// pendBuckets sizes a batching host's pending table. A head lives one ingress
// backlog: 1024 chains (8 KB) hold the ~5 000 of 10 000 connections dialling
// at once at about five apiece, and the steady state's handful at one.
const (
	pendBits    = 10
	pendBuckets = 1 << pendBits
)

// bucket mixes all 96 bits of the key — a router sees arbitrary address
// pairs, so no part of it can be left out — and keeps the product's top bits.
func (k flowKey) bucket() uint64 {
	x := uint64(k.src)<<32 | uint64(k.dst)
	x ^= (uint64(k.sport)<<16 | uint64(k.dport)) * 0x9e3779b97f4a7c15
	return x * 0xff51afd7ed558ccd >> (64 - pendBits)
}

// unpend takes a head out of the pending table.
func (h *Host) unpend(e *pktEvent) {
	p := &h.inPend[e.key.bucket()]
	for *p != e {
		p = &(*p).hnext
	}
	*p, e.hnext, e.pending = e.hnext, nil, false
}

func (h *Host) getPktEvent() *pktEvent {
	if e := h.pktFree.Get(); e != nil {
		return e
	}
	return &pktEvent{h: h}
}

func (h *Host) putPktEvent(e *pktEvent) {
	e.ifc, e.hdr, e.payload, e.buf = nil, ipv4.Header{}, nil, nil
	e.next, e.tail, e.chained = nil, nil, 0
	e.timer, e.key, e.sumOK = sim.Timer{}, flowKey{}, false
	h.pktFree.Put(e)
}

func releaseBuf(b *netbuf.Buffer) {
	if b != nil {
		b.Release()
	}
}

func (h *Host) frameIn(ifc *Iface, f ethernet.Frame) {
	switch f.Type {
	case ethernet.TypeARP:
		ifc.arp.HandleFrame(f) // releases the buffer after parsing
	case ethernet.TypeIPv4:
		hdr, payload, err := ipv4.Unmarshal(f.Payload)
		if err != nil {
			f.Buf.Release()
			return
		}
		if h.overheard(ifc, f.Dst, hdr.Dst) {
			// It costs the CPU what any arrival does, and goes no further:
			// the inbound hook and IP input would only discard it.
			h.chargeIngress(len(payload))
			f.Buf.Release()
			return
		}
		if h.profile.NAPIBudget > 1 && hdr.Protocol == ipv4.ProtoTCP && len(payload) >= tcp.HeaderLen {
			h.batchedIn(ifc, hdr, payload, f.Buf)
			return
		}
		e := h.getPktEvent()
		e.ifc, e.hdr, e.payload, e.buf = ifc, hdr, payload, f.Buf
		h.sched.AtArg(h.chargeIngress(len(payload)), "ip.input", runIPInput, e)
	default:
		f.Buf.Release()
	}
}

// overheard reports whether a frame a promiscuous NIC delivered is of no use
// to the host: addressed to another station, and to an IP destination that
// is neither the interface's snooped address nor one the host owns, on a
// host that neither forwards nor taps what it receives.
func (h *Host) overheard(ifc *Iface, mac ethernet.MAC, dst ipv4.Addr) bool {
	return mac != ifc.nic.MAC() && !mac.IsBroadcast() && dst != ifc.snoop &&
		!h.forwarding && len(h.taps) == 0 && !h.Owns(dst)
}

// batchedIn is frameIn's TCP ingress path under NAPI batching. A frame whose
// flow already has a delivery pending joins it — GRO-merged into the pending
// tail segment when the byte-level conditions hold, otherwise chained — and
// the pending delivery is re-armed to the new ingress completion time.
// Otherwise the frame becomes a new pending chain head. CPU charging is
// identical to the unbatched path; only delivery grouping changes, and all
// decisions are functions of simulation state, so determinism is preserved.
func (h *Host) batchedIn(ifc *Iface, hdr ipv4.Header, payload []byte, buf *netbuf.Buffer) {
	key := flowKey{src: hdr.Src, dst: hdr.Dst,
		sport: tcp.RawSrcPort(payload), dport: tcp.RawDstPort(payload)}
	if h.inPend == nil {
		h.inPend = make([]*pktEvent, pendBuckets)
	}
	slot := &h.inPend[key.bucket()]
	head := *slot
	for head != nil && head.key != key {
		head = head.hnext
	}
	if head != nil && head.ifc == ifc && head.chained < h.profile.NAPIBudget {
		head.chained++
		when := h.chargeIngress(len(payload))
		t := head.tail
		// GRO byte merge: append the new payload onto the pending tail
		// segment when it continues the sequence run, header shapes match,
		// and the merged packet still fits the tail's pooled store. The merge
		// writes a fresh checksum, so both segments' own must verify first
		// (a merged tail's does by construction): a frame damaged on the wire
		// is chained instead and dies at TCP input as it would unbatched.
		hl := tcp.RawHeaderLen(payload)
		if t.buf != nil && t.buf.Len() == ipv4.HeaderLen+len(t.payload) &&
			t.buf.Room() >= len(payload)-hl && tcp.CanCoalesceRaw(t.payload, payload) &&
			tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) == 0 &&
			(t.sumOK || tcp.ComputeChecksum(hdr.Src, hdr.Dst, t.payload) == 0) {
			copy(t.buf.Extend(len(payload)-hl), payload[hl:])
			t.payload = t.buf.Bytes()[ipv4.HeaderLen:]
			tcp.FinishCoalesceRaw(hdr.Src, hdr.Dst, t.payload, payload)
			t.sumOK = true
			buf.Release()
		} else {
			e := h.getPktEvent()
			e.ifc, e.hdr, e.payload, e.buf = ifc, hdr, payload, buf
			t.next = e
			head.tail = e
		}
		head.timer.Stop()
		head.timer = h.sched.AtArg(when, "ip.input", runIPInput, head)
		return
	}
	if head != nil {
		// At the budget, or on another interface: the head takes no more
		// frames, so it leaves the table to its successor now — when it
		// fires it must not take the successor's entry with it.
		h.unpend(head)
	}
	e := h.getPktEvent()
	e.ifc, e.hdr, e.payload, e.buf = ifc, hdr, payload, buf
	e.tail, e.chained, e.key = e, 1, key
	e.hnext, e.pending, *slot = *slot, true, e
	e.timer = h.sched.AtArg(h.chargeIngress(len(payload)), "ip.input", runIPInput, e)
}

func runIPInput(v any) {
	e := v.(*pktEvent)
	h := e.h
	if e.chained > 0 {
		if e.pending {
			h.unpend(e)
		}
		h.napiBatch.Observe(int64(e.chained))
	}
	for e != nil {
		next := e.next
		ifc, hdr, payload, buf := e.ifc, e.hdr, e.payload, e.buf
		h.putPktEvent(e)
		h.ipInput(ifc, hdr, payload, buf)
		e = next
	}
}

// ipInput owns buf, the pooled buffer backing payload (nil when the caller
// retains ownership); every path either releases it or hands it on. Protocol
// input below this point copies whatever it keeps.
func (h *Host) ipInput(ifc *Iface, hdr ipv4.Header, payload []byte, buf *netbuf.Buffer) {
	if !h.alive {
		releaseBuf(buf)
		return
	}
	if len(h.taps) > 0 {
		h.tap("rx", hdr, payload)
	}
	if h.inHook != nil && hdr.Protocol == ipv4.ProtoTCP {
		verdict, nh, np := h.inHook(ifc.index, hdr, payload)
		switch verdict {
		case VerdictDrop:
			releaseBuf(buf)
			return
		case VerdictDeliver:
			h.deliverLocal(nh, np)
			releaseBuf(buf)
			return
		}
	}
	if h.Owns(hdr.Dst) {
		h.deliverLocal(hdr, payload)
		releaseBuf(buf)
		return
	}
	if h.forwarding {
		h.forward(hdr, payload, buf)
		return
	}
	releaseBuf(buf)
}

func (h *Host) deliverLocal(hdr ipv4.Header, payload []byte) {
	switch hdr.Protocol {
	case ipv4.ProtoTCP:
		h.TCP().Input(hdr.Src, hdr.Dst, payload)
	default:
		for _, handler := range h.protocols[hdr.Protocol] {
			if handler != nil {
				handler(hdr, payload)
			}
		}
	}
}

// forward queues a datagram for router transmission. It takes ownership of
// buf; when the buffer holds exactly the received datagram, the IP header is
// trimmed off in place (reclaiming it as headroom for the rewritten header)
// and the payload is forwarded without a copy.
func (h *Host) forward(hdr ipv4.Header, payload []byte, buf *netbuf.Buffer) {
	if hdr.TTL <= 1 {
		releaseBuf(buf)
		return
	}
	hdr.TTL--
	e := h.getPktEvent()
	e.hdr = hdr
	if buf != nil && buf.Len() == ipv4.HeaderLen+len(payload) {
		buf.TrimFront(ipv4.HeaderLen)
		e.buf = buf
	} else {
		e.buf = netbuf.From(payload)
		releaseBuf(buf)
	}
	h.sched.AtArg(h.chargeEgress(h.profile.ForwardDelay, 0), "ip.forward", runTransmit, e)
}

// chargeIngress reserves the ingress path for one packet and returns the
// time processing completes. Hosts running a bridge pay its inbound
// per-segment cost on every received TCP datagram.
func (h *Host) chargeIngress(payloadLen int) time.Duration {
	service := h.profile.StackIngress + h.profile.perByteCost(payloadLen)
	if h.inHook != nil {
		service += h.profile.BridgeInbound
	}
	start := max(h.sched.Now(), h.cpuBusyUntil)
	h.cpuBusyUntil = start + service + h.jitter()
	return h.cpuBusyUntil
}

// chargeEgress reserves the egress path for one packet with the given
// service time and returns the completion time.
func (h *Host) chargeEgress(service time.Duration, payloadLen int) time.Duration {
	start := max(h.sched.Now(), h.cpuBusyUntil)
	h.cpuBusyUntil = start + service + h.profile.perByteCost(payloadLen) + h.jitter()
	return h.cpuBusyUntil
}

func (h *Host) jitter() time.Duration {
	if h.profile.JitterMax <= 0 {
		return 0
	}
	return time.Duration(h.sched.Rand().Int63n(int64(h.profile.JitterMax)))
}

// --- send path ----------------------------------------------------------------

// tcpOutput is the TCP stack's Output: the bridge hook interposes here,
// exactly between the TCP layer and the IP layer. It owns pkt. The stack
// hands over an unsealed segment; it is sealed here only if the hook lets it
// pass, since a segment the bridge consumes never reaches a wire as is.
func (h *Host) tcpOutput(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
	if !h.alive {
		pkt.Release()
		return ErrHostDown
	}
	if h.outHook != nil && h.outHook(src, dst, pkt.Bytes()) {
		pkt.Release()
		return nil
	}
	tcp.SealChecksum(src, dst, pkt.Bytes())
	return h.sendPacket(src, dst, ipv4.ProtoTCP, pkt, h.profile.StackEgress, "ip.output")
}

// SendIP emits a locally originated datagram, charging the stack-egress
// processing cost. The payload is copied; the caller keeps its slice.
func (h *Host) SendIP(src, dst ipv4.Addr, proto uint8, payload []byte) error {
	if !h.alive {
		return ErrHostDown
	}
	return h.sendPacket(src, dst, proto, netbuf.From(payload), h.profile.StackEgress, "ip.output")
}

// SendIPFastBuf emits a datagram with only the bridge processing cost; the
// bridges use it for segments that never traverse the full local stack. It
// takes ownership of pkt, a pooled buffer the bridge marshaled its segment
// into directly, which makes it the bridges' zero-allocation steady-state
// emit path.
func (h *Host) SendIPFastBuf(src, dst ipv4.Addr, proto uint8, pkt *netbuf.Buffer) error {
	if !h.alive {
		pkt.Release()
		return ErrHostDown
	}
	return h.sendPacket(src, dst, proto, pkt, h.profile.BridgeDelay, "bridge.output")
}

// sendPacket queues a locally originated datagram for transmission, taking
// ownership of pkt (the IP payload; headers are prepended in transmit).
func (h *Host) sendPacket(src, dst ipv4.Addr, proto uint8, pkt *netbuf.Buffer, service time.Duration, what string) error {
	hdr := ipv4.Header{ID: h.ipID, TTL: ipv4.DefaultTTL, Protocol: proto, Src: src, Dst: dst}
	h.ipID++
	e := h.getPktEvent()
	e.hdr, e.buf = hdr, pkt
	h.sched.AtArg(h.chargeEgress(service, pkt.Len()), what, runTransmit, e)
	return nil
}

func runTransmit(v any) {
	e := v.(*pktEvent)
	h, hdr, pkt := e.h, e.hdr, e.buf
	h.putPktEvent(e)
	h.transmit(hdr, pkt)
}

// transmit owns pkt, which holds the IP payload; the IPv4 header is
// prepended into its headroom in place and the same buffer rides the frame
// down to the Ethernet layer.
func (h *Host) transmit(hdr ipv4.Header, pkt *netbuf.Buffer) {
	if !h.alive {
		pkt.Release()
		return
	}
	if len(h.taps) > 0 {
		h.tap("tx", hdr, pkt.Bytes())
	}
	for _, f := range h.txTaps {
		f("tx", hdr, pkt.Bytes())
	}
	route, ok := h.routes.Lookup(hdr.Dst)
	if !ok {
		pkt.Release()
		return
	}
	ifc := h.ifaces[route.IfIndex]
	nextHop := hdr.Dst
	if !route.NextHop.IsZero() {
		nextHop = route.NextHop
	}
	ipv4.PrependHeader(pkt, hdr)
	if mac, ok := ifc.arp.Lookup(nextHop); ok {
		// Warm ARP cache: send without the resolver closure.
		_ = ifc.nic.Send(ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: pkt.Bytes(), Buf: pkt})
		return
	}
	ifc.arp.Resolve(nextHop, func(mac ethernet.MAC, err error) {
		if err != nil || !h.alive {
			pkt.Release()
			return
		}
		_ = ifc.nic.Send(ethernet.Frame{Dst: mac, Type: ethernet.TypeIPv4, Payload: pkt.Bytes(), Buf: pkt})
	})
}

// sourceAddrFor picks the local address for a destination by routing.
func (h *Host) sourceAddrFor(dst ipv4.Addr) (ipv4.Addr, bool) {
	route, ok := h.routes.Lookup(dst)
	if !ok {
		return 0, false
	}
	a := h.ifaces[route.IfIndex].Addr()
	return a, !a.IsZero()
}

// String identifies the host in traces.
func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.name) }
