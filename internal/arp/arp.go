// Package arp implements the Address Resolution Protocol for the simulated
// Ethernet, including the gratuitous ARP announcement that realizes the
// paper's IP takeover (reference [4] of the paper): when the secondary
// server takes over the primary's address, it broadcasts an ARP that causes
// the router to rebind the address to the secondary's MAC. The configurable
// processing delay on the router side contributes to the paper's interval T
// during which in-flight segments are lost and must be recovered by TCP
// retransmission.
package arp

import (
	"errors"
	"fmt"
	"time"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
)

// Operation codes.
const (
	OpRequest = 1
	OpReply   = 2
)

// PacketLen is the length of an Ethernet/IPv4 ARP packet.
const PacketLen = 28

// Packet is a parsed ARP packet.
type Packet struct {
	Op        uint16
	SenderMAC ethernet.MAC
	SenderIP  ipv4.Addr
	TargetMAC ethernet.MAC
	TargetIP  ipv4.Addr
}

// ErrTruncated is returned when unmarshaling a short packet.
var ErrTruncated = errors.New("arp: truncated packet")

// ErrUnresolvable is reported to Resolve callbacks after retries expire.
var ErrUnresolvable = errors.New("arp: address did not resolve")

// Marshal renders the packet in wire format.
func Marshal(p Packet) []byte {
	b := make([]byte, PacketLen)
	b[0], b[1] = 0, 1 // hardware type: Ethernet
	b[2], b[3] = 0x08, 0x00
	b[4], b[5] = 6, 4 // address lengths
	b[6] = byte(p.Op >> 8)
	b[7] = byte(p.Op)
	copy(b[8:14], p.SenderMAC[:])
	ipv4.PutAddr(b[14:18], p.SenderIP)
	copy(b[18:24], p.TargetMAC[:])
	ipv4.PutAddr(b[24:28], p.TargetIP)
	return b
}

// Unmarshal parses a wire-format packet.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < PacketLen {
		return Packet{}, ErrTruncated
	}
	var p Packet
	p.Op = uint16(b[6])<<8 | uint16(b[7])
	copy(p.SenderMAC[:], b[8:14])
	p.SenderIP = ipv4.GetAddr(b[14:18])
	copy(p.TargetMAC[:], b[18:24])
	p.TargetIP = ipv4.GetAddr(b[24:28])
	return p, nil
}

// The resolver's constants no caller varies.
const (
	entryTTL       = 20 * time.Minute // BSD heritage; the paper's measurements keep caches warm
	requestTimeout = time.Second      // per resolution attempt
	maxAttempts    = 3                // requests sent before a resolution fails
)

type entry struct {
	mac     ethernet.MAC
	expires time.Duration
}

type pending struct {
	callbacks []func(ethernet.MAC, error)
	attempts  int
	timer     sim.Timer
}

// Module is one interface's ARP engine: a cache plus resolver.
type Module struct {
	sched *sim.Scheduler
	nic   *ethernet.NIC
	// delay is how long after an ARP packet arrives that this station's
	// table reflects it; it models ARP handling latency in a router's slow
	// path and contributes to the paper's takeover window T.
	delay time.Duration

	// owns reports whether this station answers requests for ip on this
	// interface. It is a func so IP takeover changes behavior immediately.
	owns func(ipv4.Addr) bool
	// srcIP supplies the sender address for outgoing requests.
	srcIP func() ipv4.Addr

	// filter, when set, is consulted before a received sender binding is
	// learned or refreshed; a false verdict discards the binding and counts
	// it. It models ARP-announce authentication: the paper's IP takeover is
	// a gratuitous ARP, which is exactly what a rogue station forges to
	// hijack a live connection, so a hardened deployment pins each
	// protected address to the MACs of its replica group.
	filter   func(ip ipv4.Addr, mac ethernet.MAC) bool
	rejected int64

	cache   map[ipv4.Addr]entry
	waiting map[ipv4.Addr]*pending
}

// New creates a module bound to nic whose table reflects a received packet
// delay after it arrives. owns and srcIP must be non-nil.
func New(sched *sim.Scheduler, nic *ethernet.NIC, delay time.Duration,
	owns func(ipv4.Addr) bool, srcIP func() ipv4.Addr) *Module {
	return &Module{
		sched:   sched,
		nic:     nic,
		delay:   delay,
		owns:    owns,
		srcIP:   srcIP,
		cache:   make(map[ipv4.Addr]entry),
		waiting: make(map[ipv4.Addr]*pending),
	}
}

// Lookup consults the cache without generating traffic.
func (m *Module) Lookup(ip ipv4.Addr) (ethernet.MAC, bool) {
	e, ok := m.cache[ip]
	if !ok || m.sched.Now() >= e.expires {
		return ethernet.MAC{}, false
	}
	return e.mac, true
}

// Seed installs a static cache entry (used to pre-warm caches, as the
// paper's measurements do: "We made sure that the MAC addresses of all
// nodes were present in the ARP caches").
func (m *Module) Seed(ip ipv4.Addr, mac ethernet.MAC) {
	m.cache[ip] = entry{mac: mac, expires: m.sched.Now() + entryTTL}
}

// Flush discards the cache.
func (m *Module) Flush() { m.cache = make(map[ipv4.Addr]entry) }

// SetBindingFilter installs f, consulted before the module learns or
// refreshes a sender binding from a received ARP packet. A nil filter (the
// default) accepts every binding, which is classic unauthenticated ARP.
// Seeded entries bypass the filter: they model static configuration.
func (m *Module) SetBindingFilter(f func(ip ipv4.Addr, mac ethernet.MAC) bool) {
	m.filter = f
}

// RejectedBindings returns how many sender bindings the filter refused.
func (m *Module) RejectedBindings() int64 { return m.rejected }

// AuthorizedBindings builds a binding filter that pins each listed address
// to an allowed MAC set; addresses not listed remain unrestricted. The
// scenario builder authorizes every replica's MAC for the service address,
// so the legitimate takeover announce still rebinds it while a rogue
// station's forged gratuitous ARP is rejected.
func AuthorizedBindings(auth map[ipv4.Addr][]ethernet.MAC) func(ipv4.Addr, ethernet.MAC) bool {
	return func(ip ipv4.Addr, mac ethernet.MAC) bool {
		macs, ok := auth[ip]
		if !ok {
			return true
		}
		for _, m := range macs {
			if m == mac {
				return true
			}
		}
		return false
	}
}

// Resolve invokes cb with the MAC for ip, sending requests as needed. The
// callback runs inside the event loop, possibly synchronously on cache hit.
func (m *Module) Resolve(ip ipv4.Addr, cb func(ethernet.MAC, error)) {
	if mac, ok := m.Lookup(ip); ok {
		cb(mac, nil)
		return
	}
	if w, ok := m.waiting[ip]; ok {
		w.callbacks = append(w.callbacks, cb)
		return
	}
	w := &pending{callbacks: []func(ethernet.MAC, error){cb}}
	m.waiting[ip] = w
	m.sendRequest(ip, w)
}

func (m *Module) sendRequest(ip ipv4.Addr, w *pending) {
	w.attempts++
	if err := m.broadcast(m.srcIP(), ip); err != nil {
		m.fail(ip, w, err)
		return
	}
	w.timer = m.sched.After(requestTimeout, "arp.timeout", func() {
		if w.attempts >= maxAttempts {
			m.fail(ip, w, fmt.Errorf("%w: %s after %d attempts", ErrUnresolvable, ip, w.attempts))
			return
		}
		m.sendRequest(ip, w)
	})
}

func (m *Module) fail(ip ipv4.Addr, w *pending, err error) {
	delete(m.waiting, ip)
	for _, cb := range w.callbacks {
		cb(ethernet.MAC{}, err)
	}
}

// RFC 5227's announcement schedule (section 2.3): a claimed address is
// announced announceNum times, announceInterval apart, so that one lost
// frame does not leave the old binding in every cache.
const (
	announceNum      = 2
	announceInterval = 2 * time.Second
)

// Announce broadcasts a gratuitous ARP claiming ip for this NIC, then
// repeats it on RFC 5227's schedule while this station still owns ip; a
// crashed or fenced station stops announcing. This is step 5 of the
// paper's primary-failure procedure: the secondary "takes over the IP
// address of the primary server". The error is the first broadcast's.
func (m *Module) Announce(ip ipv4.Addr) error {
	err := m.broadcast(ip, ip)
	for i := 1; i < announceNum; i++ {
		m.sched.After(time.Duration(i)*announceInterval, "arp.announce", func() {
			if m.owns(ip) {
				_ = m.broadcast(ip, ip) // only a down NIC fails, and its host owns nothing
			}
		})
	}
	return err
}

// broadcast sends an ARP request for target from this NIC with sender as
// its own address; sender == target makes it a gratuitous ARP.
func (m *Module) broadcast(sender, target ipv4.Addr) error {
	return m.nic.Send(ethernet.Frame{
		Dst:     ethernet.Broadcast,
		Type:    ethernet.TypeARP,
		Payload: Marshal(Packet{Op: OpRequest, SenderMAC: m.nic.MAC(), SenderIP: sender, TargetIP: target}),
	})
}

// HandleFrame processes a received ARP frame, releasing its buffer: the
// parse copies every field out of the payload.
func (m *Module) HandleFrame(f ethernet.Frame) {
	pkt, err := Unmarshal(f.Payload)
	if f.Buf != nil {
		f.Buf.Release()
	}
	if err != nil {
		return
	}
	// Learn/refresh the sender binding. The processing delay models slow-path
	// table maintenance (notably in the router during IP takeover). The
	// binding filter runs at receive time: an unauthorized announce must not
	// occupy a slow-path slot either.
	if !pkt.SenderIP.IsZero() && m.filter != nil && !m.filter(pkt.SenderIP, pkt.SenderMAC) {
		m.rejected++
	} else if !pkt.SenderIP.IsZero() {
		update := func() {
			m.cache[pkt.SenderIP] = entry{
				mac:     pkt.SenderMAC,
				expires: m.sched.Now() + entryTTL,
			}
			if w, ok := m.waiting[pkt.SenderIP]; ok {
				delete(m.waiting, pkt.SenderIP)
				w.timer.Stop()
				for _, cb := range w.callbacks {
					cb(pkt.SenderMAC, nil)
				}
			}
		}
		if m.delay > 0 {
			m.sched.After(m.delay, "arp.update", update)
		} else {
			update()
		}
	}
	if pkt.Op == OpRequest && m.owns(pkt.TargetIP) && pkt.SenderIP != pkt.TargetIP {
		reply := Packet{
			Op:        OpReply,
			SenderMAC: m.nic.MAC(),
			SenderIP:  pkt.TargetIP,
			TargetMAC: pkt.SenderMAC,
			TargetIP:  pkt.SenderIP,
		}
		_ = m.nic.Send(ethernet.Frame{
			Dst:     pkt.SenderMAC,
			Type:    ethernet.TypeARP,
			Payload: Marshal(reply),
		})
	}
}
