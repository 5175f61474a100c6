// Package tcpfailover is a faithful reproduction, as a deterministic
// user-space simulation, of "Transparent TCP Connection Failover" (Koch,
// Hortikar, Moser, Melliar-Smith; DSN 2003): a bridge sublayer between the
// TCP and IP layers of a replicated server that fails a TCP endpoint over
// from a primary to a secondary server transparently to the client and to
// the server application.
//
// The package exposes a scenario builder that reconstructs the paper's
// testbed (Figure 1): a client host behind a router, and a server LAN
// carrying the primary, the secondary (snooping in promiscuous mode), and
// the replication machinery. Everything below the applications — Ethernet,
// ARP, IPv4, TCP, the bridges, the fault detectors — is implemented in the
// internal packages from scratch on top of a discrete-event engine, so
// experiments run reproducibly and report microsecond-scale virtual-time
// measurements comparable to the paper's.
package tcpfailover

import (
	"errors"
	"fmt"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/replica"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Well-known scenario addresses (cell 0; see planCell for replicated cells).
var (
	ClientAddr    = ipv4.MustParseAddr("10.0.2.1")
	PrimaryAddr   = ipv4.MustParseAddr("10.0.1.1")
	SecondaryAddr = ipv4.MustParseAddr("10.0.1.2")

	defaultRoute = ipv4.PrefixFrom(0, 0)
)

// cellPlan is the address and MAC plan for one testbed cell. The sharded
// builder (shard.go) replicates the paper's Figure 1 once per cell; cell i
// uses the 10.<i>.1.0/24 server subnet and 10.<i>.2.0/24 client subnet, so
// cell 0 is bit-identical to the historical single-cell plan above.
type cellPlan struct {
	index     int
	client    ipv4.Addr
	primary   ipv4.Addr
	secondary ipv4.Addr
	tertiary  ipv4.Addr
	routerLAN ipv4.Addr
	routerWAN ipv4.Addr
	serverPfx ipv4.Prefix
	clientPfx ipv4.Prefix

	macC, macP, macS, macT, macR1, macR2 ethernet.MAC
}

// maxCells bounds the cell index: the second address octet carries it, and
// octet 100 is reserved for the inter-cell trunk subnets.
const maxCells = 64

func planCell(i int) cellPlan {
	if i < 0 || i >= maxCells {
		panic(fmt.Sprintf("tcpfailover: cell index %d out of range [0,%d)", i, maxCells))
	}
	o := byte(i)
	return cellPlan{
		index:     i,
		client:    ipv4.AddrFrom4(10, o, 2, 1),
		primary:   ipv4.AddrFrom4(10, o, 1, 1),
		secondary: ipv4.AddrFrom4(10, o, 1, 2),
		tertiary:  ipv4.AddrFrom4(10, o, 1, 3),
		routerLAN: ipv4.AddrFrom4(10, o, 1, 254),
		routerWAN: ipv4.AddrFrom4(10, o, 2, 254),
		serverPfx: ipv4.PrefixFrom(ipv4.AddrFrom4(10, o, 1, 0), 24),
		clientPfx: ipv4.PrefixFrom(ipv4.AddrFrom4(10, o, 2, 0), 24),
		macC:      ethernet.MAC{2, 0, 0, o, 0, 0x0c},
		macP:      ethernet.MAC{2, 0, 0, o, 0, 0x01},
		macS:      ethernet.MAC{2, 0, 0, o, 0, 0x02},
		macT:      ethernet.MAC{2, 0, 0, o, 0, 0x03},
		macR1:     ethernet.MAC{2, 0, 0, o, 0, 0xf1},
		macR2:     ethernet.MAC{2, 0, 0, o, 0, 0xf2},
	}
}

// Options configures a Scenario.
type Options struct {
	// Seed drives the deterministic RNG (ISS choice, loss, jitter).
	Seed int64
	// Unreplicated builds a standard single-server scenario (the paper's
	// "standard TCP" baseline): no secondary, no bridges.
	Unreplicated bool
	// Backups selects the replication degree: 1 (default) builds the
	// paper's two-way pair; 2 builds the daisy-chained three-way group the
	// paper sketches as an extension (head <- middle <- tail).
	Backups int
	// HostProfile sets per-host processing costs. Zero value uses
	// DefaultProfile (calibrated against the paper's testbed).
	HostProfile netstack.Profile
	// ServerLAN configures the server-side Ethernet segment. Zero value is
	// 100 Mbit/s half-duplex.
	ServerLAN ethernet.Config
	// ClientLink configures the client-router link. Zero value is
	// 100 Mbit/s; WANOptions substitutes a slow lossy link.
	ClientLink ethernet.Config
	// TCP configures every host's TCP stack.
	TCP tcp.Config
	// ServerPorts lists the replicated service ports (failover-enabled).
	ServerPorts []uint16
	// PeerPorts marks server-initiated connections to these remote ports
	// as failover connections.
	PeerPorts []uint16
	// Replication carries the remaining replica.Config knobs.
	Replication replica.Config
	// RouterARPDelay models the router's ARP-table update latency, part of
	// the takeover window T.
	RouterARPDelay time.Duration
	// ColdARP leaves ARP caches empty; by default they are pre-warmed, as
	// in the paper's measurements.
	ColdARP bool
	// StartDetectors starts heartbeat fault detectors (default true for
	// replicated scenarios). Disable for microbenchmarks that want a quiet
	// event queue.
	StartDetectors *bool
	// Faults declares seeded link impairments and a failure schedule (see
	// internal/fault). Impairments are installed at build time; the
	// schedule is armed by Start. Nil means a clean network — but
	// Scenario.Faults still exists, so impairments can be added mid-run.
	Faults *fault.Plan
	// Spans enables fleet span tracing: a per-connection lifecycle recorder
	// is attached to the client stack and the replica group, and the crash
	// schedule stamps the fleet failure mark. Off by default — the recorder
	// is pointer-free and alloc-free in the steady state, but the hooks
	// still cost a branch per segment event.
	Spans bool
}

// LANOptions returns the paper's LAN testbed: 100 Mbit/s Ethernet
// everywhere, warm ARP caches.
func LANOptions() Options {
	return Options{
		Seed:        1,
		HostProfile: netstack.DefaultProfile(),
		ServerLAN:   ethernet.Config{HalfDuplex: true, CollisionProb: 0.03, Propagation: time.Microsecond},
		ClientLink:  ethernet.Config{HalfDuplex: true, CollisionProb: 0.03, Propagation: time.Microsecond},
		ServerPorts: []uint16{80},
	}
}

// WANOptions returns the paper's wide-area FTP environment: the client
// reaches the server site over a slow, jittery, lossy bottleneck.
func WANOptions() Options {
	o := LANOptions()
	o.ClientLink = ethernet.Config{
		BandwidthBps: 1_544_000, // T1-class bottleneck
		Propagation:  5 * time.Millisecond,
		LossRate:     0.002,
		Jitter:       4 * time.Millisecond,
	}
	return o
}

// Scenario is an assembled simulation of the paper's testbed.
type Scenario struct {
	Sched  *sim.Scheduler
	Client *netstack.Host
	// Primary is the (only) server in unreplicated scenarios.
	Primary   *netstack.Host
	Secondary *netstack.Host
	Router    *netstack.Host
	// Group is the replica group; nil for unreplicated scenarios.
	Group *replica.Group
	// Tertiary is the second backup in a chained scenario (Backups: 2).
	Tertiary *netstack.Host

	ServerLAN  *ethernet.Segment
	ClientLink *ethernet.Segment

	// Faults manages the scenario's impairment injectors and partitions.
	// It is always non-nil; Options.Faults pre-populates it.
	Faults *fault.Set

	// Obs is the scenario's metrics registry. Every instrumented component
	// (scheduler, links, hosts, bridges, fault injectors) is attached at
	// build time, so steady-state updates are handle stores with no lookup.
	Obs *obs.Registry

	// Spans is the fleet span recorder, non-nil when Options.Spans is set:
	// per-connection lifecycle milestones recorded by the client stack and
	// the secondary bridge, plus the failure/detect/takeover fleet marks.
	Spans *obs.SpanRecorder

	opts          Options
	plan          cellPlan
	scheduleArmed bool
}

// ErrTimeout is returned by RunUntil when the condition does not hold
// before the deadline.
var ErrTimeout = errors.New("tcpfailover: condition not met before deadline")

// onBuild, when set, sees every scenario NewScenario and NewCells build
// (tests only).
var onBuild func(*Scenario)

// NewScenario builds the topology of the paper's Figure 1.
func NewScenario(opts Options) (*Scenario, error) {
	sc, err := newScenarioOn(sim.New(opts.Seed), 0, opts)
	if err == nil && onBuild != nil {
		onBuild(sc)
	}
	return sc, err
}

// NewCells builds n copies of the testbed, cell i addressed by planCell(i)
// and seeded with cellSeed(opts.Seed, i) on a scheduler of its own. Cells
// never exchange a frame, so each is an independent simulation that may run
// on its own goroutine.
func NewCells(n int, opts Options) ([]*Scenario, error) {
	if n < 1 || n > maxCells {
		return nil, fmt.Errorf("tcpfailover: cell count %d outside [1,%d]", n, maxCells)
	}
	cells := make([]*Scenario, n)
	for i := range cells {
		o := opts
		o.Seed = cellSeed(opts.Seed, i)
		sc, err := newScenarioOn(sim.New(o.Seed), i, o)
		if err != nil {
			return nil, fmt.Errorf("tcpfailover: cell %d: %w", i, err)
		}
		if onBuild != nil {
			onBuild(sc)
		}
		cells[i] = sc
	}
	return cells, nil
}

// cellSeed mixes the base seed with the cell index (splitmix64-style) so
// cells are decorrelated but each cell's seed is a pure function of
// (base, i).
func cellSeed(base int64, i int) int64 {
	x := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int64(x)
}

// newScenarioOn builds one testbed cell on an existing scheduler, addressed
// by planCell(cell). NewCells hands it a fresh scheduler per cell, the
// sharded builder places several cells on one domain scheduler, and the
// plain path hands it a fresh scheduler and cell 0.
func newScenarioOn(sched *sim.Scheduler, cell int, opts Options) (*Scenario, error) {
	if opts.HostProfile == (netstack.Profile{}) {
		opts.HostProfile = netstack.DefaultProfile()
	}
	plan := planCell(cell)
	sc := &Scenario{Sched: sched, opts: opts, plan: plan}

	sc.ServerLAN = ethernet.NewSegment(sched, opts.ServerLAN)
	sc.ClientLink = ethernet.NewSegment(sched, opts.ClientLink)

	sc.Router = netstack.NewHost(sched, "router", opts.HostProfile)
	sc.Router.SetForwarding(true)
	sc.Router.AttachIface(sc.ServerLAN, plan.macR1, plan.routerLAN, plan.serverPfx)  // if 0
	sc.Router.AttachIface(sc.ClientLink, plan.macR2, plan.routerWAN, plan.clientPfx) // if 1
	if opts.RouterARPDelay > 0 {
		sc.Router.SetARPConfig(0, arp.Config{ProcessingDelay: opts.RouterARPDelay})
	}

	sc.Client = netstack.NewHost(sched, "client", opts.HostProfile)
	sc.Client.SetTCPConfig(opts.TCP)
	sc.Client.AttachIface(sc.ClientLink, plan.macC, plan.client, plan.clientPfx)
	sc.Client.AddRoute(defaultRoute, plan.routerWAN, 0)

	sc.Primary = netstack.NewHost(sched, "primary", opts.HostProfile)
	sc.Primary.SetTCPConfig(opts.TCP)
	sc.Primary.AttachIface(sc.ServerLAN, plan.macP, plan.primary, plan.serverPfx)
	sc.Primary.AddRoute(defaultRoute, plan.routerLAN, 0)

	if !opts.Unreplicated {
		sc.Secondary = netstack.NewHost(sched, "secondary", opts.HostProfile)
		sc.Secondary.SetTCPConfig(opts.TCP)
		sc.Secondary.AttachIface(sc.ServerLAN, plan.macS, plan.secondary, plan.serverPfx)
		sc.Secondary.AddRoute(defaultRoute, plan.routerLAN, 0)

		cfg := opts.Replication
		cfg.ServerPorts = append(cfg.ServerPorts, opts.ServerPorts...)
		cfg.PeerPorts = append(cfg.PeerPorts, opts.PeerPorts...)
		members := []*netstack.Host{sc.Primary, sc.Secondary}
		switch opts.Backups {
		case 0, 1:
		case 2:
			sc.Tertiary = netstack.NewHost(sched, "tertiary", opts.HostProfile)
			sc.Tertiary.SetTCPConfig(opts.TCP)
			sc.Tertiary.AttachIface(sc.ServerLAN, plan.macT, plan.tertiary, plan.serverPfx)
			sc.Tertiary.AddRoute(defaultRoute, plan.routerLAN, 0)
			members = append(members, sc.Tertiary)
		default:
			return nil, fmt.Errorf("scenario: unsupported replication degree %d", opts.Backups)
		}
		var err error
		if sc.Group, err = replica.NewGroup(members, cfg); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	if !opts.ColdARP {
		sc.warmARP()
	}
	sc.pinARPBindings()

	serverStations := map[fault.Role]*ethernet.NIC{
		fault.RoleRouter:  sc.Router.Iface(0).NIC(),
		fault.RolePrimary: sc.Primary.Iface(0).NIC(),
	}
	if sc.Secondary != nil {
		serverStations[fault.RoleSecondary] = sc.Secondary.Iface(0).NIC()
	}
	if sc.Tertiary != nil {
		serverStations[fault.RoleTertiary] = sc.Tertiary.Iface(0).NIC()
	}
	topo := fault.Topology{
		Links: map[fault.LinkID]*ethernet.Segment{
			fault.LinkServerLAN:  sc.ServerLAN,
			fault.LinkClientLink: sc.ClientLink,
		},
		Stations: map[fault.LinkID]map[fault.Role]*ethernet.NIC{
			fault.LinkServerLAN: serverStations,
			fault.LinkClientLink: {
				fault.RoleClient: sc.Client.Iface(0).NIC(),
				fault.RoleRouter: sc.Router.Iface(1).NIC(),
			},
		},
	}
	sc.Faults = fault.NewSet(sched, opts.Seed, topo)
	sc.Obs = obs.NewRegistry()
	sc.attachObs()
	if opts.Spans {
		sc.Spans = obs.NewSpanRecorder()
		sc.Spans.AttachObs(sc.Obs)
		sc.Client.TCP().AttachSpans(sc.Spans)
		if sc.Group != nil {
			sc.Group.AttachSpans(sc.Spans)
		}
	}
	if opts.Faults != nil {
		if err := sc.Faults.Apply(opts.Faults.Impairments); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		for i, step := range opts.Faults.Schedule {
			if err := sc.validateStep(step); err != nil {
				return nil, fmt.Errorf("scenario: schedule step %d: %w", i, err)
			}
		}
	}
	return sc, nil
}

// attachObs resolves every component's metric handles against the
// scenario registry. Runs once inside NewScenario, before any traffic, so
// connections and injectors created later inherit live handles.
func (sc *Scenario) attachObs() {
	reg := sc.Obs
	sc.Sched.AttachObs(reg)
	sc.ServerLAN.AttachObs(reg, "serverlan")
	sc.ClientLink.AttachObs(reg, "clientlink")
	for _, h := range []*netstack.Host{sc.Client, sc.Primary, sc.Secondary, sc.Tertiary, sc.Router} {
		if h != nil {
			h.AttachObs(reg)
		}
	}
	if sc.Group != nil {
		sc.Group.AttachObs(reg)
	}
	sc.Faults.AttachObs(reg)
}

// validateStep rejects schedule steps the assembled topology cannot honor,
// so misconfigured plans fail at build time rather than mid-run.
func (sc *Scenario) validateStep(step fault.Step) error {
	switch step.Op {
	case fault.OpCrashPrimary:
		return nil
	case fault.OpCrashSecondary:
		if sc.Secondary == nil {
			return errors.New("crash-secondary in an unreplicated scenario")
		}
	case fault.OpCrashTertiary:
		if sc.Tertiary == nil {
			return errors.New("crash-tertiary without a tertiary replica")
		}
	case fault.OpPartition, fault.OpHeal:
		if !sc.Faults.HasPartition(step.Arg) {
			return fmt.Errorf("%s names unknown partition %q", step.Op, step.Arg)
		}
	default:
		return fmt.Errorf("unknown op %q", step.Op)
	}
	return nil
}

// applyStep executes one failure-schedule step inside the event loop.
func (sc *Scenario) applyStep(step fault.Step) {
	switch step.Op {
	case fault.OpCrashPrimary:
		if sc.Group != nil {
			sc.Group.Crash(0)
			break
		}
		sc.Spans.MarkFailure(sc.Sched.Now())
		sc.Primary.Crash()
	case fault.OpCrashSecondary:
		sc.Group.Crash(1)
	case fault.OpCrashTertiary:
		sc.Group.Crash(2)
	case fault.OpPartition:
		_ = sc.Faults.Partition(step.Arg)
	case fault.OpHeal:
		_ = sc.Faults.Heal(step.Arg)
	}
}

func (sc *Scenario) warmARP() {
	// "We made sure that the MAC addresses of all nodes were present in
	// the ARP caches" (paper, section 9).
	p := sc.plan
	sc.Client.Iface(0).ARP().Seed(p.routerWAN, p.macR2)
	sc.Router.Iface(1).ARP().Seed(p.client, p.macC)
	sc.Router.Iface(0).ARP().Seed(p.primary, p.macP)
	sc.Primary.Iface(0).ARP().Seed(p.routerLAN, p.macR1)
	if sc.Secondary != nil {
		sc.Router.Iface(0).ARP().Seed(p.secondary, p.macS)
		sc.Secondary.Iface(0).ARP().Seed(p.routerLAN, p.macR1)
		sc.Primary.Iface(0).ARP().Seed(p.secondary, p.macS)
		sc.Secondary.Iface(0).ARP().Seed(p.primary, p.macP)
	}
	if sc.Tertiary != nil {
		sc.Router.Iface(0).ARP().Seed(p.tertiary, p.macT)
		sc.Tertiary.Iface(0).ARP().Seed(p.routerLAN, p.macR1)
		sc.Tertiary.Iface(0).ARP().Seed(p.primary, p.macP)
		sc.Tertiary.Iface(0).ARP().Seed(p.secondary, p.macS)
		sc.Primary.Iface(0).ARP().Seed(p.tertiary, p.macT)
		sc.Secondary.Iface(0).ARP().Seed(p.tertiary, p.macT)
	}
}

// pinARPBindings pins every planned address to its station's MAC on all ARP
// modules of the cell. The service address is authorized for the whole
// replica group, so the paper's takeover announce (the secondary claiming
// aP) still succeeds while a rogue station's forged gratuitous ARP is
// rejected and counted — where the paper's testbed ran classic
// unauthenticated ARP. Addresses outside the plan stay unrestricted.
func (sc *Scenario) pinARPBindings() {
	p := sc.plan
	serviceMACs := []ethernet.MAC{p.macP}
	if sc.Secondary != nil {
		serviceMACs = append(serviceMACs, p.macS)
	}
	if sc.Tertiary != nil {
		serviceMACs = append(serviceMACs, p.macT)
	}
	serverAuth := arp.AuthorizedBindings(map[ipv4.Addr][]ethernet.MAC{
		p.primary:   serviceMACs,
		p.secondary: {p.macS},
		p.tertiary:  {p.macT},
		p.routerLAN: {p.macR1},
	})
	clientAuth := arp.AuthorizedBindings(map[ipv4.Addr][]ethernet.MAC{
		p.client:    {p.macC},
		p.routerWAN: {p.macR2},
	})
	sc.Router.Iface(0).ARP().SetBindingFilter(serverAuth)
	sc.Router.Iface(1).ARP().SetBindingFilter(clientAuth)
	sc.Client.Iface(0).ARP().SetBindingFilter(clientAuth)
	sc.Primary.Iface(0).ARP().SetBindingFilter(serverAuth)
	if sc.Secondary != nil {
		sc.Secondary.Iface(0).ARP().SetBindingFilter(serverAuth)
	}
	if sc.Tertiary != nil {
		sc.Tertiary.Iface(0).ARP().SetBindingFilter(serverAuth)
	}
}

// Start begins replication (fault detectors) and arms the failure
// schedule. Call after installing the replicated applications.
func (sc *Scenario) Start() {
	if sc.opts.Faults != nil && !sc.scheduleArmed {
		sc.scheduleArmed = true
		for _, step := range sc.opts.Faults.Schedule {
			step := step
			sc.Sched.At(step.At, "fault."+string(step.Op), func() { sc.applyStep(step) })
		}
	}
	start := true
	if sc.opts.StartDetectors != nil {
		start = *sc.opts.StartDetectors
	}
	if !start {
		return
	}
	if sc.Group != nil {
		sc.Group.Start()
	}
}

// ServiceAddr returns the address clients connect to.
func (sc *Scenario) ServiceAddr() ipv4.Addr { return sc.plan.primary }

// Run executes the simulation for a span of virtual time.
func (sc *Scenario) Run(d time.Duration) error { return sc.Sched.RunFor(d) }

// RunUntil steps the simulation until cond holds or the deadline (absolute
// virtual time) passes.
func (sc *Scenario) RunUntil(cond func() bool, deadline time.Duration) error {
	for !cond() {
		if sc.Sched.Now() > deadline {
			return fmt.Errorf("%w (now=%v)", ErrTimeout, sc.Sched.Now())
		}
		if !sc.Sched.Step() {
			if cond() {
				return nil
			}
			return fmt.Errorf("%w: event queue empty at %v", ErrTimeout, sc.Sched.Now())
		}
	}
	return nil
}

// Now returns the current virtual time.
func (sc *Scenario) Now() time.Duration { return sc.Sched.Now() }
