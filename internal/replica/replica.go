// Package replica orchestrates an actively replicated TCP server: an
// ordered group of hosts — the paper's primary and secondary, or a daisy
// chain with one more backup behind them — on which it installs the bridges,
// runs the fault detectors in every direction, and triggers the paper's
// failover procedures. The server application is instantiated identically
// on every host (active replication) and must behave deterministically on a
// per-connection basis, as the paper requires.
package replica

import (
	"errors"
	"fmt"

	"tcpfailover/internal/core"
	"tcpfailover/internal/detect"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
)

// Config assembles a Group.
type Config struct {
	// ServerPorts are the replicated service's listening ports (the
	// paper's port-set method of marking failover connections).
	ServerPorts []uint16
	// PeerPorts mark server-initiated connections toward these remote
	// ports as failover connections (section 7.2).
	PeerPorts []uint16
	// Detect tunes the fault detectors.
	Detect detect.Config
	// MaxFlows bounds every bridge's flow table — each matcher's tracked
	// connections and each backup's flow cache — evicting the least
	// recently touched entry beyond it. Zero selects a default above a
	// million; no value leaves the tables unbounded.
	MaxFlows int
}

// ifIndex is the server-LAN interface of every member.
const ifIndex = 0

// Group is a replicated server: its members in chain order. Member 0 (the
// primary) owns the service address and talks to the client; every later
// member is a backup that snoops the client's segments and diverts its own
// output to the member before it; every member but the last matches its
// output against the diverted stream of the member after it. Two members
// are the paper's pair; a failure shortens the chain, and primary and
// backup are positions in it, not types.
//
// The failure routing lives in this controller; a production deployment
// would replicate it on each node (driven by the same mesh of fault
// detectors).
type Group struct {
	hosts []*netstack.Host
	addrs []ipv4.Addr
	alive []bool

	sel     *core.Selector
	head    *core.PrimaryBridge
	backups []*core.SecondaryBridge // by position; backups[0] is nil

	detectors []*detect.Detector

	// OnFailover, if set, is invoked after a failover procedure completes;
	// the argument is the position (0 = primary) that failed. TakeoverErr
	// tells it whether the takeovers so far completed cleanly.
	OnFailover  func(position int)
	takeoverErr error

	// spans, when attached, receives the failure fleet mark when the
	// member serving the client is crashed and the detector-fired mark the
	// instant its successor declares it dead, before the takeover procedure
	// starts.
	spans *obs.SpanRecorder

	started bool
}

// NewGroup wires the bridges onto the hosts, given in chain order: the
// first host's address is the service address clients connect to. The
// facade builds groups of two and three.
func NewGroup(hosts []*netstack.Host, cfg Config) (*Group, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("replica: a group needs at least two hosts, got %d", len(hosts))
	}
	g := &Group{
		hosts:   hosts,
		addrs:   make([]ipv4.Addr, len(hosts)),
		alive:   make([]bool, len(hosts)),
		sel:     core.NewSelector(),
		backups: make([]*core.SecondaryBridge, len(hosts)),
	}
	for i, h := range hosts {
		g.addrs[i] = h.Iface(ifIndex).Addr()
		g.alive[i] = true
		if g.addrs[i].IsZero() {
			return nil, fmt.Errorf("replica: host %d has no address", i)
		}
	}
	for _, p := range cfg.ServerPorts {
		g.sel.EnableServerPort(p)
	}
	for _, p := range cfg.PeerPorts {
		g.sel.EnablePeerPort(p)
	}
	last := len(hosts) - 1
	g.head = core.NewPrimaryBridge(hosts[0], g.addrs[0], g.addrs[1], g.sel, cfg.MaxFlows)
	for i := 1; i <= last; i++ {
		if i < last {
			g.backups[i] = core.NewInteriorBridge(hosts[i], ifIndex, g.addrs[0], g.addrs[i], g.addrs[i+1], g.sel, cfg.MaxFlows)
		} else {
			g.backups[i] = core.NewSecondaryBridge(hosts[i], ifIndex, g.addrs[0], g.addrs[i], g.sel, cfg.MaxFlows)
		}
		g.backups[i].SetUpstream(g.addrs[i-1])
	}
	// A full mesh of fault detectors: every member watches every other, and
	// the controller routes each failure according to who is left.
	for watcher := range hosts {
		for watched := range hosts {
			if watcher != watched {
				g.detectors = append(g.detectors, detect.New(hosts[watcher], g.addrs[watcher], g.addrs[watched],
					cfg.Detect, func() { g.onFailure(watcher, watched) }))
			}
		}
	}
	return g, nil
}

// matcher returns member i's matching bridge; nil for the last member.
func (g *Group) matcher(i int) *core.PrimaryBridge {
	if i == 0 {
		return g.head
	}
	return g.backups[i].Matcher()
}

// liveNeighbours returns the nearest live members before and after
// position; -1 where there is none.
func (g *Group) liveNeighbours(position int) (up, down int) {
	up, down = -1, -1
	for i := position - 1; i >= 0 && up < 0; i-- {
		if g.alive[i] {
			up = i
		}
	}
	for i := position + 1; i < len(g.hosts) && down < 0; i++ {
		if g.alive[i] {
			down = i
		}
	}
	return up, down
}

// onFailure routes a detected failure by the failed member's nearest live
// neighbours. Detectors on every surviving member fire; only the first
// report of a position reconfigures. Whoever reports is alive, whatever an
// earlier suspicion said: a backup the primary wrongly gave up on still
// takes over when the primary dies.
func (g *Group) onFailure(watcher, position int) {
	g.alive[watcher] = true
	if !g.alive[position] {
		return
	}
	g.alive[position] = false
	up, down := g.liveNeighbours(position)
	switch {
	case up < 0 && down >= 0:
		// The member serving the client died: the next one runs the
		// section 5 takeover, and the member behind that one diverts to the
		// service address it now owns.
		g.spans.MarkDetect(g.hosts[down].Scheduler().Now())
		g.takeoverErr = errors.Join(g.takeoverErr, g.backups[down].Takeover())
		if _, next := g.liveNeighbours(down); next >= 0 {
			g.backups[next].SetUpstream(g.addrs[0])
		}
	case up >= 0 && down >= 0:
		// A backup between two live members died: the one behind it
		// re-attaches to the one before it, which keeps matching (the stream
		// and its sequence space are the same, since the client was
		// synchronized to the last member's sequence numbers all along).
		g.backups[down].SetUpstream(g.addrs[up])
		g.matcher(up).SetMatchingPeer(g.addrs[down])
	case up >= 0:
		// The last live member died: the one before it degrades to
		// unmatched operation (section 6).
		g.matcher(up).HandleSecondaryFailure()
	}
	if g.OnFailover != nil {
		g.OnFailover(position)
	}
}

// TakeoverErr returns the joined errors of every takeover the group has
// run: nil before any takeover and when all completed cleanly, otherwise
// the steps that failed (each takeover still ran to the end).
func (g *Group) TakeoverErr() error { return g.takeoverErr }

// Start begins heartbeat exchange. Call after the replicated applications
// are installed on every host.
func (g *Group) Start() {
	if g.started {
		return
	}
	g.started = true
	for _, d := range g.detectors {
		d.Start()
	}
}

// Stop halts the fault detectors (the bridges stay installed).
func (g *Group) Stop() {
	for _, d := range g.detectors {
		d.Stop()
	}
}

// Primary returns the primary host.
func (g *Group) Primary() *netstack.Host { return g.hosts[0] }

// Secondary returns the first backup's host.
func (g *Group) Secondary() *netstack.Host { return g.hosts[1] }

// ServiceAddr returns the address clients connect to (the primary's).
func (g *Group) ServiceAddr() ipv4.Addr { return g.addrs[0] }

// Selector exposes the failover-connection selector (to enable individual
// connections, the paper's socket-option method).
func (g *Group) Selector() *core.Selector { return g.sel }

// AttachSpans installs the fleet span recorder on the group: the failure
// and detector marks land here, and every backup bridge is wired for the
// per-flow first-diverted milestone and the takeover mark.
func (g *Group) AttachSpans(r *obs.SpanRecorder) {
	g.spans = r
	for _, b := range g.backups[1:] {
		b.AttachSpans(r)
	}
}

// AttachObs resolves every bridge's metric handles against reg, labeled
// with its host's name.
func (g *Group) AttachObs(reg *obs.Registry) {
	g.head.AttachObs(reg, g.hosts[0].Name())
	for i, b := range g.backups[1:] {
		b.AttachObs(reg, g.hosts[i+1].Name())
	}
}

// PrimaryBridge exposes the primary's matching bridge (stats, tests).
func (g *Group) PrimaryBridge() *core.PrimaryBridge { return g.head }

// SecondaryBridge exposes the first backup's bridge (stats, tests).
func (g *Group) SecondaryBridge() *core.SecondaryBridge { return g.backups[1] }

// Backup exposes the bridge of the backup at position (1 is the first).
func (g *Group) Backup(position int) *core.SecondaryBridge { return g.backups[position] }

// OnEach runs f on every host — the way a deterministic replicated
// application is installed.
func (g *Group) OnEach(f func(h *netstack.Host) error) error {
	for _, h := range g.hosts {
		if err := f(h); err != nil {
			return fmt.Errorf("%s: %w", h.Name(), err)
		}
	}
	return nil
}

// Crash fail-stops the host at position; the other members' fault detectors
// will notice and reconfigure. Crashing the member that serves the client
// stamps the failure mark.
func (g *Group) Crash(position int) {
	if up, _ := g.liveNeighbours(position); up < 0 {
		g.spans.MarkFailure(g.hosts[position].Scheduler().Now())
	}
	g.hosts[position].Crash()
}

// CrashPrimary fail-stops the primary host and stamps the failure mark;
// the secondary's fault detector will notice and run the takeover
// procedure.
func (g *Group) CrashPrimary() { g.Crash(0) }
