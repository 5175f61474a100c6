package tcpfailover

import (
	"fmt"
	"time"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
)

// Sharded multi-cell topologies.
//
// NewSharded replicates the paper's Figure 1 testbed into C independent
// cells — client, router, primary, secondary each on their own subnets (see
// planCell) — joins the routers into a ring of trunk links, and partitions
// the cells across N domain schedulers advanced in conservative lockstep by
// a sim.ShardGroup. Every cell's events live in its own sim stream and every
// trunk's deliveries in its own mailbox streams, so the simulation's results
// are byte-identical for every value of Shards (including 1): the shard
// count is purely a wall-clock parallelism knob. Cells never exchange a
// frame unless a test routes one over the trunks, so only benchmark/'s
// web-crash workload and the engine's own tests still build one; everything
// else runs NewCells.

// ShardedOptions configures a sharded multi-cell scenario.
type ShardedOptions struct {
	// Cells is the number of testbed cells (≥ 1).
	Cells int
	// Shards is the number of domain schedulers the cells are partitioned
	// across. Clamped to [1, Cells]. Shards=1 is the sequential engine.
	Shards int
	// Workers caps the goroutines driving domains each window; 0 means
	// min(Shards, GOMAXPROCS). The bench harness lowers it to compose with
	// its own per-config worker fan-out.
	Workers int
	// Cell is the per-cell scenario template. Cell.Seed is the base seed:
	// cell i runs with a seed mixed deterministically from (Seed, i).
	Cell Options
	// CrossLink configures the inter-router trunk links. Latency must be
	// positive when Shards > 1 — it bounds the lockstep lookahead.
	CrossLink ethernet.XConfig
	// Digest enables per-stream execution digests on every domain (the
	// byte-identity witness used by the differential tests). Off by default:
	// it hashes every event name on the hot path.
	Digest bool
}

// Cell is one replicated testbed cell inside a sharded scenario.
type Cell struct {
	*Scenario
	// Stream is the cell's event stream (id = cell index + 1).
	Stream *sim.Stream
	// Domain is the scheduler the cell is partitioned onto.
	Domain *sim.Scheduler
	// Index is the cell index, which also selects its address plan.
	Index int
}

// ShardedScenario is a partitioned multi-cell simulation.
type ShardedScenario struct {
	Group *sim.ShardGroup
	Cells []*Cell

	opts ShardedOptions
}

// trunkNet is the /24 for trunk link k (between cell k and cell (k+1)%C):
// 10.100.<k>.0, router k east side .1, router k+1 west side .2.
func trunkEastAddr(k int) ipv4.Addr { return ipv4.AddrFrom4(10, 100, byte(k), 1) }
func trunkWestAddr(k int) ipv4.Addr { return ipv4.AddrFrom4(10, 100, byte(k), 2) }
func trunkPrefix(k int) ipv4.Prefix {
	return ipv4.PrefixFrom(ipv4.AddrFrom4(10, 100, byte(k), 0), 24)
}

func routerEastMAC(i int) ethernet.MAC { return ethernet.MAC{2, 0, 0x66, byte(i), 0, 1} }
func routerWestMAC(i int) ethernet.MAC { return ethernet.MAC{2, 0, 0x66, byte(i), 0, 2} }
func trunkEastMAC(k int) ethernet.MAC  { return ethernet.MAC{2, 0, 0x77, byte(k), 0, 1} }
func trunkWestMAC(k int) ethernet.MAC  { return ethernet.MAC{2, 0, 0x77, byte(k), 0, 2} }

// Router interface indexes in a sharded cell (0/1 are LAN/WAN as always).
const (
	ifEast = 2
	ifWest = 3
)

// NewSharded builds a partitioned multi-cell scenario.
func NewSharded(opts ShardedOptions) (*ShardedScenario, error) {
	c := opts.Cells
	if c < 1 {
		return nil, fmt.Errorf("tcpfailover: sharded scenario needs at least 1 cell, got %d", c)
	}
	if c > maxCells {
		return nil, fmt.Errorf("tcpfailover: at most %d cells, got %d", maxCells, c)
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > c {
		shards = c
	}
	if c > 1 && shards > 1 && opts.CrossLink.Latency <= 0 {
		return nil, fmt.Errorf("tcpfailover: cross-domain trunk latency must be positive with shards=%d (zero-latency links serialize the simulation; run with Shards=1)", shards)
	}

	// Domain schedulers. Every domain gets the same base seed — domain
	// stream 0 is never used for simulation work; all real work runs in
	// per-cell and per-mailbox streams.
	domains := make([]*sim.Scheduler, shards)
	for d := range domains {
		domains[d] = sim.New(opts.Cell.Seed)
		if opts.Digest {
			domains[d].EnableDigest()
		}
	}
	group := sim.NewShardGroup(domains...)
	if opts.Workers > 0 {
		group.SetWorkers(opts.Workers)
	}

	ss := &ShardedScenario{Group: group, opts: opts}

	// Build cells, each under its own stream on its domain. dom(i) is the
	// contiguous block partition i*shards/c.
	for i := 0; i < c; i++ {
		dom := domains[i*shards/c]
		st := dom.NewStream(sim.StreamID(i+1), cellSeed(opts.Cell.Seed, i))
		st.Use()
		o := opts.Cell
		o.Seed = cellSeed(opts.Cell.Seed, i)
		sc, err := newScenarioOn(dom, i, o)
		if err != nil {
			return nil, fmt.Errorf("tcpfailover: cell %d: %w", i, err)
		}
		ss.Cells = append(ss.Cells, &Cell{Scenario: sc, Stream: st, Domain: dom, Index: i})
	}

	// Scheduler-level metrics (timer arms) are per *domain*, not per cell:
	// their values depend on the partition, so they must not leak into the
	// per-cell registries. Detach them.
	for _, d := range domains {
		d.AttachObs(nil)
	}

	if c > 1 {
		if err := ss.linkRing(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// linkRing joins the cell routers into a ring of trunk links and installs
// shortest-path routes for every foreign cell prefix.
func (ss *ShardedScenario) linkRing() error {
	c := len(ss.Cells)
	east := make([]*ethernet.Segment, c) // east[k]: stub for link k, in dom(cell k)
	west := make([]*ethernet.Segment, c) // west[k]: stub for link k, in dom(cell k+1)
	stubCfg := ethernet.Config{BandwidthBps: ethernet.TrunkBandwidthBps}
	for k := 0; k < c; k++ {
		east[k] = ethernet.NewSegment(ss.Cells[k].Domain, stubCfg)
		west[k] = ethernet.NewSegment(ss.Cells[(k+1)%c].Domain, stubCfg)
	}

	// Router interfaces: iface 2 east (link i), iface 3 west (link i-1).
	for i, cell := range ss.Cells {
		cell.Router.AttachIface(east[i], routerEastMAC(i), trunkEastAddr(i), trunkPrefix(i))
		kw := (i - 1 + c) % c
		cell.Router.AttachIface(west[kw], routerWestMAC(i), trunkWestAddr(kw), trunkPrefix(kw))
	}

	// Trunks: one XLink per ring edge, built in ascending order so mailbox
	// stream ids are identical for every partition.
	for k := 0; k < c; k++ {
		j := (k + 1) % c
		_, err := ethernet.ConnectDomains(ss.Group,
			ss.Cells[k].Domain, east[k], trunkEastMAC(k),
			ss.Cells[j].Domain, west[k], trunkWestMAC(k),
			ss.opts.CrossLink, cellSeed(ss.opts.Cell.Seed, 1000+k))
		if err != nil {
			return fmt.Errorf("tcpfailover: trunk %d: %w", k, err)
		}
	}

	// Routes and trunk ARP. Foreign prefixes route around the ring the
	// short way; ties (d == c/2 exactly) go east. Trunk-adjacent ARP is
	// always pre-seeded — the trunks are infrastructure, not part of the
	// cell's measured cold-start behavior.
	for i, cell := range ss.Cells {
		next := (i + 1) % c
		prev := (i - 1 + c) % c
		cell.Router.Iface(ifEast).ARP().Seed(trunkWestAddr(i), routerWestMAC(next))
		cell.Router.Iface(ifWest).ARP().Seed(trunkEastAddr(prev), routerEastMAC(prev))
		for j := range ss.Cells {
			if j == i {
				continue
			}
			d := (j - i + c) % c
			p := planCell(j)
			if 2*d <= c {
				cell.Router.AddRoute(p.serverPfx, trunkWestAddr(i), ifEast)
				cell.Router.AddRoute(p.clientPfx, trunkWestAddr(i), ifEast)
			} else {
				cell.Router.AddRoute(p.serverPfx, trunkEastAddr(prev), ifWest)
				cell.Router.AddRoute(p.clientPfx, trunkEastAddr(prev), ifWest)
			}
		}
	}
	return nil
}

// Start starts every cell (detectors, fault schedules), each under its own
// stream.
func (ss *ShardedScenario) Start() {
	for _, cell := range ss.Cells {
		cell.Stream.Use()
		cell.Scenario.Start()
	}
}

// RunUntil advances the whole group to t (half-open: events exactly at t
// wait for a later call; see sim.ShardGroup.RunUntil).
func (ss *ShardedScenario) RunUntil(t time.Duration) error { return ss.Group.RunUntil(t) }

// Now returns the group's virtual time.
func (ss *ShardedScenario) Now() time.Duration { return ss.Group.Now() }

// Executed returns total events executed across all domains.
func (ss *ShardedScenario) Executed() int { return ss.Group.Executed() }

// Digests returns the per-stream execution digests across all domains,
// ordered by stream id. Requires ShardedOptions.Digest.
func (ss *ShardedScenario) Digests() []sim.StreamDigest { return ss.Group.StreamDigests() }
