// Package replica orchestrates an actively replicated TCP server: an
// ordered group of hosts — the paper's primary and secondary, or a daisy
// chain with one more backup behind them — on which it installs the bridges,
// runs the fault detectors in every direction, and has each member run its
// part of the paper's failover procedures on what its own detectors report.
// The server application is instantiated identically on every host (active replication) and must behave deterministically on a
// per-connection basis, as the paper requires.
package replica

import (
	"errors"
	"fmt"
	"slices"

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
	// MaxFlows bounds each matcher's tracked connections (the primary's,
	// and an interior backup's), evicting the least recently touched one
	// beyond it. Zero selects a default above a million; no value leaves a
	// matcher unbounded. A backup's own bridge keeps no per-flow state.
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
// Every member acts on its own view of who is alive, written only by its own
// detectors. A member that owns the service address claims it in its
// heartbeats; an owner that hears a later member's claim fail-stops.
type Group struct {
	hosts []*netstack.Host
	addrs []ipv4.Addr
	alive [][]bool // alive[m][i]: member m's belief about member i

	sel     *core.Selector
	head    *core.PrimaryBridge
	backups []*core.SecondaryBridge // by position; backups[0] is nil

	detectors []*detect.Detector

	// OnFailover, if set, is invoked by the member that ran a failover
	// procedure, once per failed position (0 = primary). TakeoverErr tells
	// it whether the takeovers so far completed cleanly.
	OnFailover  func(position int)
	takeoverErr error

	reg *obs.Registry // replica_fences_total attaches at the first fence

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
		alive:   make([][]bool, len(hosts)),
		sel:     core.NewSelector(),
		backups: make([]*core.SecondaryBridge, len(hosts)),
	}
	for i, h := range hosts {
		g.addrs[i] = h.Iface(ifIndex).Addr()
		g.alive[i] = slices.Repeat([]bool{true}, len(hosts))
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
			g.backups[i] = core.NewSecondaryBridge(hosts[i], ifIndex, g.addrs[0], g.addrs[i], g.sel)
		}
		g.backups[i].SetUpstream(g.addrs[i-1])
	}
	// A full mesh of fault detectors: every member watches every other and
	// routes each failure it detects according to who it believes is left.
	for watcher := range hosts {
		for watched := range hosts {
			if watcher != watched {
				d := detect.New(hosts[watcher], g.addrs[watcher], g.addrs[watched],
					func() { g.onFailure(watcher, watched) })
				d.Claim(g.addrs[0], func() { g.onClaim(watcher, watched) })
				g.detectors = append(g.detectors, d)
			}
		}
	}
	return g, nil
}

// Matcher returns member i's matching bridge; nil for the last member.
func (g *Group) Matcher(i int) *core.PrimaryBridge {
	if i == 0 {
		return g.head
	}
	return g.backups[i].Matcher()
}

// liveNeighbours returns the nearest members before and after position
// that member m believes alive; -1 where there is none.
func (g *Group) liveNeighbours(m, position int) (up, down int) {
	up, down = -1, -1
	for i := position - 1; i >= 0 && up < 0; i-- {
		if g.alive[m][i] {
			up = i
		}
	}
	for i := position + 1; i < len(g.hosts) && down < 0; i++ {
		if g.alive[m][i] {
			down = i
		}
	}
	return up, down
}

// onFailure runs the watcher's part, if it has one, of the procedure for a
// member its own detector declared dead, routed by that member's nearest
// live neighbours in the watcher's view.
func (g *Group) onFailure(watcher, position int) {
	g.alive[watcher][position] = false
	up, down := g.liveNeighbours(watcher, position)
	switch {
	case up < 0 && down == watcher:
		// The member serving the client died: this one runs the section 5
		// takeover.
		g.spans.MarkDetect(g.hosts[watcher].Scheduler().Now())
		g.takeoverErr = errors.Join(g.takeoverErr, g.backups[watcher].Takeover())
	case up < 0:
		// Right behind the one taking over: divert to the address it takes.
		if _, next := g.liveNeighbours(watcher, down); next == watcher {
			g.backups[watcher].SetUpstream(g.addrs[0])
		}
		return
	case down == watcher:
		// A backup between two live members died: this one re-attaches to
		// the one before it, which keeps matching (the stream and its
		// sequence space are the same: the client was synchronized to the
		// last member's sequence numbers all along).
		g.backups[watcher].SetUpstream(g.addrs[up])
	case up == watcher && down >= 0:
		// The same failure, seen by the member before it: match the next one.
		g.Matcher(watcher).SetMatchingPeer(g.addrs[down])
		return
	case up == watcher:
		// The last live member died: this one degrades to unmatched
		// operation (section 6).
		g.Matcher(watcher).HandleSecondaryFailure()
	default:
		return
	}
	if g.OnFailover != nil {
		g.OnFailover(position)
	}
}

// onClaim handles claimant's claim on the service address. A watcher ahead
// of it that still owns the address was wrongly replaced: it fail-stops,
// and the later claimant keeps the address.
func (g *Group) onClaim(watcher, claimant int) {
	if claimant > watcher && g.hosts[watcher].Owns(g.addrs[0]) {
		g.stop(watcher)
		g.reg.Counter("replica_fences_total").Inc()
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
// with its host's name, and keeps reg for the group's fence counter.
func (g *Group) AttachObs(reg *obs.Registry) {
	g.reg = reg
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

// Crash fail-stops the member at position; the other members' fault
// detectors will notice and reconfigure. Crashing the member that serves the
// client (every member before it is down) stamps the failure mark.
func (g *Group) Crash(position int) {
	if !slices.ContainsFunc(g.hosts[:position], (*netstack.Host).Alive) {
		g.spans.MarkFailure(g.hosts[position].Scheduler().Now())
	}
	g.stop(position)
}

// stop fail-stops the member at position: its host and its matcher.
func (g *Group) stop(position int) {
	g.hosts[position].Crash()
	if m := g.Matcher(position); m != nil {
		m.Crash()
	}
}
