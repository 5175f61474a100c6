// Package replica orchestrates a two-way actively replicated TCP server:
// it installs the primary and secondary bridges, runs the fault detectors
// in both directions, and triggers the paper's failover procedures. The
// server application is instantiated identically on both hosts (active
// replication) and must behave deterministically on a per-connection basis,
// as the paper requires.
package replica

import (
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
	// Bridge tunes the primary bridge.
	Bridge core.PrimaryConfig
	// SecondaryMaxFlows bounds the secondary bridge's flow cache (LRU
	// eviction beyond the cap); 0 means unbounded.
	SecondaryMaxFlows int
	// IfIndexPrimary / IfIndexSecondary are the server-LAN interfaces.
	IfIndexPrimary   int
	IfIndexSecondary int
}

// Role identifies a group member.
type Role int

// Group member roles.
const (
	RolePrimary Role = iota + 1
	RoleSecondary
)

// String names the role.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "secondary"
}

// Group is a replicated server pair.
type Group struct {
	primary   *netstack.Host
	secondary *netstack.Host
	aP, aS    ipv4.Addr

	sel *core.Selector
	pb  *core.PrimaryBridge
	sb  *core.SecondaryBridge

	detectOnPrimary   *detect.Detector // watches the secondary
	detectOnSecondary *detect.Detector // watches the primary

	// OnFailover, if set, is invoked after a failover procedure completes;
	// the argument is the role that failed. TakeoverErr tells it whether a
	// takeover completed cleanly.
	OnFailover  func(failed Role)
	takeoverErr error

	// spans, when attached, receives the failure fleet mark when the
	// primary is crashed and the detector-fired mark the instant the
	// secondary declares it dead, before the takeover procedure starts.
	spans *obs.SpanRecorder

	started bool
}

// NewGroup wires the bridges onto the two hosts. The primary address aP is
// the service address clients connect to; aS is the secondary's own
// address.
func NewGroup(primary, secondary *netstack.Host, cfg Config) (*Group, error) {
	aP := primary.Iface(cfg.IfIndexPrimary).Addr()
	aS := secondary.Iface(cfg.IfIndexSecondary).Addr()
	if aP.IsZero() || aS.IsZero() {
		return nil, fmt.Errorf("replica: interfaces must have addresses (aP=%s aS=%s)", aP, aS)
	}
	sel := core.NewSelector()
	for _, p := range cfg.ServerPorts {
		sel.EnableServerPort(p)
	}
	for _, p := range cfg.PeerPorts {
		sel.EnablePeerPort(p)
	}
	g := &Group{
		primary:   primary,
		secondary: secondary,
		aP:        aP,
		aS:        aS,
		sel:       sel,
	}
	g.pb = core.NewPrimaryBridge(primary, aP, aS, sel, cfg.Bridge)
	g.sb = core.NewSecondaryBridge(secondary, cfg.IfIndexSecondary, aP, aS, sel)
	g.sb.SetFlowLimit(cfg.SecondaryMaxFlows)
	g.detectOnPrimary = detect.New(primary, aP, aS, cfg.Detect, func() {
		g.pb.HandleSecondaryFailure()
		if g.OnFailover != nil {
			g.OnFailover(RoleSecondary)
		}
	})
	g.detectOnSecondary = detect.New(secondary, aS, aP, cfg.Detect, func() {
		g.spans.MarkDetect(g.secondary.Scheduler().Now())
		g.takeoverErr = g.sb.Takeover()
		if g.OnFailover != nil {
			g.OnFailover(RolePrimary)
		}
	})
	return g, nil
}

// TakeoverErr returns what the secondary's takeover reported: nil before
// any takeover and after a clean one, otherwise the joined errors of the
// steps that failed (the takeover still ran to the end).
func (g *Group) TakeoverErr() error { return g.takeoverErr }

// Start begins heartbeat exchange. Call after the replicated applications
// are installed on both hosts.
func (g *Group) Start() {
	if g.started {
		return
	}
	g.started = true
	g.detectOnPrimary.Start()
	g.detectOnSecondary.Start()
}

// Stop halts the fault detectors (the bridges stay installed).
func (g *Group) Stop() {
	g.detectOnPrimary.Stop()
	g.detectOnSecondary.Stop()
}

// Primary returns the primary host.
func (g *Group) Primary() *netstack.Host { return g.primary }

// Secondary returns the secondary host.
func (g *Group) Secondary() *netstack.Host { return g.secondary }

// ServiceAddr returns the address clients connect to (the primary's).
func (g *Group) ServiceAddr() ipv4.Addr { return g.aP }

// Selector exposes the failover-connection selector (to enable individual
// connections, the paper's socket-option method).
func (g *Group) Selector() *core.Selector { return g.sel }

// AttachSpans installs the fleet span recorder on the group: the failure
// and detector marks land here, and the secondary bridge is wired for the
// per-flow first-diverted milestone and the takeover mark.
func (g *Group) AttachSpans(r *obs.SpanRecorder) {
	g.spans = r
	g.sb.AttachSpans(r)
}

// PrimaryBridge exposes the primary bridge (stats, tests).
func (g *Group) PrimaryBridge() *core.PrimaryBridge { return g.pb }

// SecondaryBridge exposes the secondary bridge (stats, tests).
func (g *Group) SecondaryBridge() *core.SecondaryBridge { return g.sb }

// OnEach runs f on both hosts — the way a deterministic replicated
// application is installed.
func (g *Group) OnEach(f func(h *netstack.Host) error) error {
	if err := f(g.primary); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if err := f(g.secondary); err != nil {
		return fmt.Errorf("secondary: %w", err)
	}
	return nil
}

// CrashPrimary fail-stops the primary host and stamps the failure mark;
// the secondary's fault detector will notice and run the takeover
// procedure.
func (g *Group) CrashPrimary() {
	g.spans.MarkFailure(g.primary.Scheduler().Now())
	g.primary.Crash()
}

// CrashSecondary fail-stops the secondary host; the primary's fault
// detector will notice and degrade to single-server operation.
func (g *Group) CrashSecondary() { g.secondary.Crash() }
