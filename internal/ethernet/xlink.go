package ethernet

import (
	"fmt"
	"sync"
	"time"

	"tcpfailover/internal/sim"
)

// Cross-domain trunk links.
//
// An XLink joins two Ethernet segments that may live in different domains of
// a sharded simulation (sim.ShardGroup). Each side attaches a promiscuous
// trunk NIC to its segment; every frame it overhears is relayed
// store-and-forward to the remote segment through a sim.Mailbox and
// re-transmitted there with NIC.Inject, preserving the original source MAC —
// stations on both sides see one transparent L2 path. The relay pays the
// trunk's own serialization (at TrunkBandwidthBps) plus XConfig.Latency,
// which is the latency the shard group's conservative lookahead is derived
// from: a frame overheard at time t cannot appear remotely before
// t + Latency, so the link's declared latency is exactly the lockstep
// window's safety margin.
//
// Segments bridged by an XLink should be two-station stubs (one router, one
// trunk NIC): broadcast delivery skips the transmitting NIC, so a two-station
// stub cannot echo a relayed frame back through the trunk, and no spanning
// tree is needed.

// TrunkBandwidthBps is a trunk link's bit rate.
const TrunkBandwidthBps = 10_000_000_000

// XConfig describes a trunk link's physical characteristics.
type XConfig struct {
	// Latency is the one-way store-and-forward delay. It must be positive
	// when the link crosses a domain boundary — it bounds the group's
	// conservative lookahead (zero-latency links only work sequentially).
	Latency time.Duration
}

// XLink is a bidirectional trunk between two segments.
type XLink struct {
	a, b *xTrunk
}

// xTrunk is one direction's relay endpoint: the promiscuous NIC on the local
// segment and the mailbox toward the remote one.
type xTrunk struct {
	sched     *sim.Scheduler
	nic       *NIC
	mb        *sim.Mailbox
	peer      *xTrunk
	lat       time.Duration
	busyUntil time.Duration
}

// ConnectDomains bridges segment a (managed by aSched) and segment b
// (managed by bSched) with a trunk, registering one mailbox per direction in
// group g. The MACs name the trunk NICs; they never appear as a frame
// source. The seed feeds the two rx streams (seed and seed+1). aSched and
// bSched may be the same scheduler — the trunk then relays within one
// domain, byte-identically to the cross-domain case.
func ConnectDomains(g *sim.ShardGroup, aSched *sim.Scheduler, a *Segment, aMAC MAC,
	bSched *sim.Scheduler, b *Segment, bMAC MAC, cfg XConfig, seed int64) (*XLink, error) {
	mbAB, err := g.NewMailbox(aSched, bSched, cfg.Latency, seed)
	if err != nil {
		return nil, fmt.Errorf("ethernet: trunk a->b: %w", err)
	}
	mbBA, err := g.NewMailbox(bSched, aSched, cfg.Latency, seed+1)
	if err != nil {
		return nil, fmt.Errorf("ethernet: trunk b->a: %w", err)
	}
	ta := &xTrunk{sched: aSched, mb: mbAB, lat: cfg.Latency}
	tb := &xTrunk{sched: bSched, mb: mbBA, lat: cfg.Latency}
	ta.peer, tb.peer = tb, ta
	ta.nic = a.Attach(aMAC)
	ta.nic.SetPromiscuous(true)
	ta.nic.SetHandler(ta.forward)
	tb.nic = b.Attach(bMAC)
	tb.nic.SetPromiscuous(true)
	tb.nic.SetHandler(tb.forward)
	return &XLink{a: ta, b: tb}, nil
}

// forward relays one overheard frame: serialize it onto the trunk (with
// store-and-forward contention against earlier relays) and post delivery to
// the remote domain. The frame's pooled buffer travels with it; the window
// barrier's happens-before edge makes the cross-goroutine handoff safe.
func (t *xTrunk) forward(f Frame) {
	start := t.sched.Now()
	if start < t.busyUntil {
		start = t.busyUntil
	}
	bits := int64(wireBytes(len(f.Payload))) * 8
	t.busyUntil = start + time.Duration(bits*int64(time.Second)/TrunkBandwidthBps)
	xf := xferPool.Get().(*xfer)
	xf.t = t.peer
	xf.f = f
	t.mb.Post(t.busyUntil+t.lat, "xlink.deliver", runXDeliver, xf)
}

// xfer carries one in-flight frame between domains without a per-frame
// closure. Pooled with sync.Pool because it is acquired in the source domain
// and recycled in the destination one.
type xfer struct {
	t *xTrunk
	f Frame
}

var xferPool = sync.Pool{New: func() any { return new(xfer) }}

// runXDeliver executes in the destination domain (under the mailbox's rx
// stream): the frame goes onto the remote segment with its source MAC
// intact.
func runXDeliver(v any) {
	xf := v.(*xfer)
	t, f := xf.t, xf.f
	xf.t, xf.f = nil, Frame{}
	xferPool.Put(xf)
	_ = t.nic.Inject(f)
}
