// Package ethernet models shared 100 Mbit/s-class Ethernet segments with
// promiscuous-mode NICs, the substrate the paper's secondary server uses to
// snoop client traffic. A Segment is a broadcast medium (hub): every
// attached NIC observes every frame, and a NIC in promiscuous mode delivers
// frames addressed to other stations up its stack.
//
// The timing model charges each frame its serialization delay (frame bits /
// bandwidth, including preamble, CRC, and inter-frame gap) plus propagation
// delay. The medium is half-duplex by default: a sender must wait for the
// medium to free up, and contended access can suffer CSMA/CD-style
// collisions with binary exponential backoff. Collisions are what give
// standard TCP its non-linear transfer times in the paper's Figure 4.
package ethernet

import (
	"errors"
	"fmt"
	"time"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-stations MAC address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherType values used by the simulation.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
)

// Frame is an Ethernet frame. Payload aliasing follows the usual simulation
// convention: senders must not modify the payload after Send.
//
// Buf, when non-nil, is the pooled buffer backing Payload. Ownership
// transfers with the frame: Send takes it unconditionally (releasing it on
// every error and loss path), and a receive handler owns the Buf of each
// frame delivered to it — it must Release the buffer (or hand it on) once
// done, and may patch Payload in place, since every station receives its
// own copy of the bits. Frames built with a bare Payload and nil Buf are
// copied into a pooled buffer by Send.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    EtherType
	Payload []byte
	Buf     *netbuf.Buffer
}

// release drops the frame's pooled buffer, if any.
func (f *Frame) release() {
	if f.Buf != nil {
		f.Buf.Release()
		f.Buf = nil
	}
}

// Wire-format constants (bytes).
const (
	headerBytes   = 14 // dst + src + ethertype
	crcBytes      = 4
	minFrameBytes = 64 // minimum frame incl. header and CRC
	preambleBytes = 8  // preamble + SFD
	ifgBytes      = 12 // inter-frame gap, charged as time on the wire
	maxPayload    = 1500
)

// ErrFrameTooLarge is returned by Send for payloads above the Ethernet MTU.
var ErrFrameTooLarge = errors.New("ethernet: frame payload exceeds MTU")

// ErrNotAttached is returned by Send when a NIC has no segment.
var ErrNotAttached = errors.New("ethernet: nic not attached to a segment")

// wireBytes returns the number of byte-times the frame occupies the medium.
func wireBytes(payloadLen int) int {
	n := payloadLen + headerBytes + crcBytes
	if n < minFrameBytes {
		n = minFrameBytes
	}
	return n + preambleBytes + ifgBytes
}

// Config describes a segment's physical characteristics.
type Config struct {
	// BandwidthBps is the raw bit rate. Default 100 Mbit/s.
	BandwidthBps int64
	// Propagation is the one-way signal delay across the segment.
	Propagation time.Duration
	// LossRate is the probability that a frame is lost on the wire.
	LossRate float64
	// Jitter adds a uniformly random extra delivery delay in [0, Jitter),
	// modeling competing traffic on shared infrastructure (the paper's WAN).
	Jitter time.Duration
	// HalfDuplex enables contention: senders wait for a free medium and
	// deferred transmissions may collide.
	HalfDuplex bool
	// CollisionProb is the probability that a deferred (contended)
	// transmission suffers a collision and backs off. Only meaningful when
	// HalfDuplex is set.
	CollisionProb float64
}

// slotTime is the backoff quantum: the 10/100 Mbit Ethernet slot, 512 bit
// times at 10 Mbit/s.
const slotTime = 51200 * time.Nanosecond

func (c Config) withDefaults() Config {
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 100_000_000
	}
	return c
}

// Stats aggregates segment counters. Frames and Collisions are views of
// the link's series; Lost is link_lost_total plus the frames an impairer
// dropped at a single receiving station, which the series does not count.
type Stats struct {
	Frames     int64
	Bytes      int64
	Collisions int64
	Lost       int64
}

// Segment is a shared broadcast medium.
type Segment struct {
	sched *sim.Scheduler
	cfg   Config
	nics  []*NIC

	busyUntil time.Duration
	bytes     int64 // wire bytes transmitted
	rxLost    int64 // frames an impairer dropped at one receiving station

	// Free list of delivery events and a reusable receiver list: the
	// per-frame hot path schedules delivery without allocating.
	deliverFree sim.FreeList[deliverEvent]
	recvScratch []*NIC

	// impair, when set, judges every frame: at transmission (drop,
	// in-place corruption) and once per receiving NIC (asymmetric drop).
	// internal/fault provides the standard implementation; the segment
	// only applies verdicts.
	impair Impairer

	// Observability handles (discard slots until AttachObs).
	mFrames     obs.Counter
	mCollisions obs.Counter
	mLost       obs.Counter
}

// Impairer is the segment's fault-injection hook (see internal/fault).
type Impairer interface {
	// Tx is consulted once per frame at transmission time. It may patch
	// f.Payload in place (bit corruption): Send has already copied the
	// payload into a pooled buffer, and every receiver gets its own copy
	// of the corrupted bits, exactly as on a physical medium. Returning
	// true loses the frame on the wire: no station receives it.
	Tx(src *NIC, f Frame) bool
	// Rx is consulted once per (receiver, frame) pair for frames that
	// survived transmission; returning true loses the frame at that
	// station only (e.g. dropped by the secondary but received by the
	// primary, the paper's second loss case).
	Rx(dst *NIC, f Frame) bool
}

// SetImpairer installs the segment's fault-injection hook (nil to clear).
func (s *Segment) SetImpairer(imp Impairer) { s.impair = imp }

// NewSegment creates a segment managed by sched.
func NewSegment(sched *sim.Scheduler, cfg Config) *Segment {
	s := &Segment{sched: sched, cfg: cfg.withDefaults()}
	s.AttachObs(nil, "")
	return s
}

// AttachObs resolves the segment's metric handles against reg, labeling
// each series with the link name. Call once at scenario build time.
func (s *Segment) AttachObs(reg *obs.Registry, link string) {
	s.mFrames = reg.Counter(fmt.Sprintf("link_frames_total{link=%q}", link))
	s.mCollisions = reg.Counter(fmt.Sprintf("link_collisions_total{link=%q}", link))
	s.mLost = reg.Counter(fmt.Sprintf("link_lost_total{link=%q}", link))
}

// Stats returns a copy of the segment counters.
func (s *Segment) Stats() Stats {
	return Stats{
		Frames:     s.mFrames.Value(),
		Bytes:      s.bytes,
		Collisions: s.mCollisions.Value(),
		Lost:       s.mLost.Value() + s.rxLost,
	}
}

// Config returns the segment configuration.
func (s *Segment) Config() Config { return s.cfg }

// Attach creates a NIC with the given MAC address connected to the segment.
func (s *Segment) Attach(mac MAC) *NIC {
	nic := &NIC{mac: mac, seg: s, up: true}
	s.nics = append(s.nics, nic)
	return nic
}

// serialization returns the time a payload of the given length occupies the
// medium.
func (s *Segment) serialization(payloadLen int) time.Duration {
	bits := int64(wireBytes(payloadLen)) * 8
	return time.Duration(bits * int64(time.Second) / s.cfg.BandwidthBps)
}

// transmit schedules delivery of a frame from src. It implements the
// simplified contention model described in the package comment.
func (s *Segment) transmit(src *NIC, f Frame) {
	now := s.sched.Now()
	start := now
	attempts := 0
	for {
		if start < s.busyUntil {
			start = s.busyUntil
			// Deferred transmission: contended access may collide.
			if s.cfg.HalfDuplex && s.cfg.CollisionProb > 0 &&
				s.sched.Rand().Float64() < s.cfg.CollisionProb && attempts < 10 {
				attempts++
				s.mCollisions.Inc()
				slots := s.sched.Rand().Intn(1 << min(attempts, 10))
				start += s.serialization(0) + time.Duration(slots)*slotTime
				continue
			}
		}
		break
	}
	ser := s.serialization(len(f.Payload))
	s.busyUntil = start + ser
	s.mFrames.Inc()
	s.bytes += int64(wireBytes(len(f.Payload)))

	if s.cfg.LossRate > 0 && s.sched.Rand().Float64() < s.cfg.LossRate {
		s.mLost.Inc()
		f.release()
		return
	}
	if s.impair != nil && s.impair.Tx(src, f) {
		s.mLost.Inc()
		f.release()
		return
	}
	delivery := s.busyUntil + s.cfg.Propagation
	if s.cfg.Jitter > 0 {
		delivery += time.Duration(s.sched.Rand().Int63n(int64(s.cfg.Jitter)))
	}
	ev := s.getDeliverEvent()
	ev.src, ev.f = src, f
	s.sched.AtArg(delivery, "ether.deliver", runDeliver, ev)
}

// deliverEvent carries one in-flight frame from transmit to deliver through
// the scheduler without a per-frame closure allocation.
type deliverEvent struct {
	seg *Segment
	src *NIC
	f   Frame
}

func (s *Segment) getDeliverEvent() *deliverEvent {
	if ev := s.deliverFree.Get(); ev != nil {
		return ev
	}
	return &deliverEvent{seg: s}
}

func runDeliver(v any) {
	ev := v.(*deliverEvent)
	s, src, f := ev.seg, ev.src, ev.f
	ev.src, ev.f = nil, Frame{}
	s.deliverFree.Put(ev)
	s.deliver(src, f)
}

func (s *Segment) deliver(src *NIC, f Frame) {
	// First pass: decide who receives the frame (loss injectors fire once
	// per station). Second pass: every station receives its own copy of the
	// bits, exactly as on a physical medium, so receivers (e.g. the
	// failover bridges) may patch their copy in place. The last receiver is
	// handed the original buffer; the rest get pooled clones.
	recv := s.recvScratch[:0]
	for _, nic := range s.nics {
		if nic == src || !nic.up || nic.handler == nil {
			continue
		}
		if f.Dst == nic.mac || f.Dst.IsBroadcast() || nic.promiscuous {
			if s.impair != nil && s.impair.Rx(nic, f) {
				s.rxLost++
				continue
			}
			recv = append(recv, nic)
		}
	}
	s.recvScratch = recv[:0]
	if len(recv) == 0 {
		f.release()
		return
	}
	for _, nic := range recv[:len(recv)-1] {
		cp := f
		if f.Buf != nil {
			cp.Buf = f.Buf.Clone()
			cp.Payload = cp.Buf.Bytes()
		} else {
			cp.Payload = make([]byte, len(f.Payload))
			copy(cp.Payload, f.Payload)
		}
		nic.handler(cp)
	}
	nic := recv[len(recv)-1]
	if f.Buf == nil {
		cp := make([]byte, len(f.Payload))
		copy(cp, f.Payload)
		f.Payload = cp
	}
	nic.handler(f)
}

// NIC is a network interface attached to a segment.
type NIC struct {
	mac         MAC
	seg         *Segment
	promiscuous bool
	up          bool
	handler     func(Frame)

	rxFrames int64
}

// MAC returns the interface hardware address.
func (n *NIC) MAC() MAC { return n.mac }

// SetPromiscuous enables or disables promiscuous receive mode. The paper's
// secondary server enables it to snoop client segments addressed to the
// primary, and disables it as step 2 of the failover procedure.
func (n *NIC) SetPromiscuous(on bool) { n.promiscuous = on }

// Promiscuous reports whether promiscuous mode is enabled.
func (n *NIC) Promiscuous() bool { return n.promiscuous }

// SetUp administratively enables or disables the interface. A downed NIC
// neither sends nor receives; it models a crashed host.
func (n *NIC) SetUp(up bool) { n.up = up }

// SetHandler installs the receive callback. The handler runs inside the
// simulation event loop.
func (n *NIC) SetHandler(h func(Frame)) {
	n.handler = func(f Frame) {
		n.rxFrames++
		h(f)
	}
}

// Send transmits a frame. The frame's Src is overwritten with the NIC's
// address. Ownership of f.Buf (if any) transfers to Send unconditionally:
// it is released on every error and drop path, so callers must not touch
// the frame after Send returns.
func (n *NIC) Send(f Frame) error {
	return n.send(f, true)
}

// Inject transmits a frame without overwriting its source address: the
// frame appears on the segment as coming from whoever built it. Bridging
// stations use it — the cross-domain trunk relays overheard frames onto the
// remote segment with the original sender's MAC intact, so ARP caches and
// snooping stacks on both sides see one transparent L2 network. Ownership
// rules match Send.
func (n *NIC) Inject(f Frame) error {
	return n.send(f, false)
}

func (n *NIC) send(f Frame, overwriteSrc bool) error {
	if n.seg == nil {
		f.release()
		return ErrNotAttached
	}
	if len(f.Payload) > maxPayload {
		f.release()
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	if !n.up {
		f.release()
		return nil // silently dropped, like a cable pull
	}
	if f.Buf == nil {
		// Defensive copy into a pooled buffer: the sender keeps its slice,
		// and delivery can hand the buffer itself to the final receiver.
		f.Buf = netbuf.From(f.Payload)
		f.Payload = f.Buf.Bytes()
	}
	if overwriteSrc {
		f.Src = n.mac
	}
	n.seg.transmit(n, f)
	return nil
}

// RxFrames returns the number of frames delivered to this NIC.
func (n *NIC) RxFrames() int64 { return n.rxFrames }
