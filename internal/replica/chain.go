package replica

import (
	"errors"
	"fmt"

	"tcpfailover/internal/core"
	"tcpfailover/internal/detect"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
)

// Chain is a three-way daisy-chained replication group — the paper's
// suggested extension beyond two-way replication (section 1): the tail
// diverts to the middle, the middle merges and diverts to the head, and the
// head merges and talks to the client. Failures shorten the chain:
//
//   - head fails  -> the middle is promoted (section 5 takeover) and the
//     chain becomes head'=middle with backup tail;
//   - middle fails -> the tail re-attaches its diversion to the head; the
//     head keeps matching (the stream and its sequence space are identical,
//     since the client was synchronized to the tail's sequence numbers all
//     along);
//   - tail fails  -> the middle degrades per section 6 and keeps feeding
//     its own stream to the head.
//
// After one failure the chain behaves exactly like a two-way Group, so a
// second failure is survived as well. The failure-routing logic lives in
// this controller; a production deployment would replicate it on each node
// (driven by the same mesh of fault detectors).
type Chain struct {
	hosts [3]*netstack.Host
	addrs [3]ipv4.Addr

	sel  *core.Selector
	head *core.PrimaryBridge
	mid  *core.MiddleBridge
	tail *core.SecondaryBridge

	alive     [3]bool
	detectors []*detect.Detector

	// OnFailover is invoked after a reconfiguration completes; the argument
	// is the chain position (0 = head) that failed. TakeoverErr tells it
	// whether the promotions and takeovers so far completed cleanly.
	OnFailover  func(position int)
	takeoverErr error

	started bool
}

// NewChain wires a head, middle, and tail. cfg.IfIndexPrimary applies to
// the head, cfg.IfIndexSecondary to both backups.
func NewChain(head, middle, tail *netstack.Host, cfg Config) (*Chain, error) {
	c := &Chain{
		hosts: [3]*netstack.Host{head, middle, tail},
		alive: [3]bool{true, true, true},
	}
	c.addrs[0] = head.Iface(cfg.IfIndexPrimary).Addr()
	c.addrs[1] = middle.Iface(cfg.IfIndexSecondary).Addr()
	c.addrs[2] = tail.Iface(cfg.IfIndexSecondary).Addr()
	for i, a := range c.addrs {
		if a.IsZero() {
			return nil, fmt.Errorf("replica: chain host %d has no address", i)
		}
	}
	c.sel = core.NewSelector()
	for _, p := range cfg.ServerPorts {
		c.sel.EnableServerPort(p)
	}
	for _, p := range cfg.PeerPorts {
		c.sel.EnablePeerPort(p)
	}
	// Head matches its own output against the middle's merged stream.
	c.head = core.NewPrimaryBridge(head, c.addrs[0], c.addrs[1], c.sel, cfg.Bridge)
	// Middle translates client traffic, matches against the tail, diverts
	// the merged stream to the head.
	c.mid = core.NewMiddleBridge(middle, cfg.IfIndexSecondary,
		c.addrs[0], c.addrs[1], c.addrs[2], c.sel, cfg.Bridge)
	// Tail is an ordinary secondary whose diversion targets the middle.
	c.tail = core.NewSecondaryBridge(tail, cfg.IfIndexSecondary, c.addrs[0], c.addrs[2], c.sel)
	c.tail.SetUpstream(c.addrs[1])

	// A full mesh of fault detectors: every node watches every other; the
	// controller routes each failure according to the current chain shape.
	for i := range 3 {
		for j := range 3 {
			if i == j {
				continue
			}
			watcher, watched := i, j
			d := detect.New(c.hosts[watcher], c.addrs[watcher], c.addrs[watched], cfg.Detect,
				func() { c.onFailure(watched) })
			c.detectors = append(c.detectors, d)
		}
	}
	return c, nil
}

// Start begins heartbeat exchange; call after the replicated applications
// are installed on all three hosts.
func (c *Chain) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, d := range c.detectors {
		d.Start()
	}
}

// HeadBridge exposes the head's matching bridge.
func (c *Chain) HeadBridge() *core.PrimaryBridge { return c.head }

// MiddleBridge exposes the middle's composed bridge.
func (c *Chain) MiddleBridge() *core.MiddleBridge { return c.mid }

// TailBridge exposes the tail's secondary bridge.
func (c *Chain) TailBridge() *core.SecondaryBridge { return c.tail }

// OnEach runs f on all three hosts (application installation).
func (c *Chain) OnEach(f func(h *netstack.Host) error) error {
	for i, h := range c.hosts {
		if err := f(h); err != nil {
			return fmt.Errorf("chain host %d: %w", i, err)
		}
	}
	return nil
}

// TakeoverErr returns the joined errors of every promotion and takeover the
// chain has run; nil when all of them completed cleanly.
func (c *Chain) TakeoverErr() error { return c.takeoverErr }

// Crash fail-stops the host at the given chain position.
func (c *Chain) Crash(position int) { c.hosts[position].Crash() }

// onFailure routes a detected failure according to the current topology.
// Detectors on every surviving node fire; the reconfiguration itself is
// idempotent.
func (c *Chain) onFailure(position int) {
	if !c.alive[position] {
		return
	}
	c.alive[position] = false
	switch position {
	case 0: // head died: the middle is promoted and the tail re-targets
		// its diversion to the service address the middle now owns. If the
		// middle is already gone, the tail takes over directly.
		if c.alive[1] {
			c.takeoverErr = errors.Join(c.takeoverErr, c.mid.PromoteToHead())
			c.tail.SetUpstream(c.addrs[0])
		} else if c.alive[2] {
			c.takeoverErr = errors.Join(c.takeoverErr, c.tail.Takeover())
		}
	case 1: // middle died: the tail re-attaches to the head — unless the
		// head is already gone (promoted middle), in which case the tail
		// performs the final takeover.
		if c.alive[0] {
			c.tail.SetUpstream(c.addrs[0])
			c.head.SetMatchingPeer(c.addrs[2])
		} else if c.alive[2] {
			c.takeoverErr = errors.Join(c.takeoverErr, c.tail.Takeover())
		}
	case 2: // tail died: whichever node was feeding on it degrades.
		if c.alive[1] {
			c.mid.HandleTailFailure()
		} else if c.alive[0] {
			c.head.HandleSecondaryFailure()
		}
	}
	// A middle loss leaves the head matching the tail's stream; a tail
	// loss after a promotion leaves the promoted middle alone.
	if !c.alive[1] && !c.alive[2] && c.alive[0] {
		c.head.HandleSecondaryFailure()
	}
	if !c.alive[0] && !c.alive[2] && c.alive[1] {
		c.mid.HandleTailFailure()
	}
	if c.OnFailover != nil {
		c.OnFailover(position)
	}
}
