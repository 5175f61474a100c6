package bench

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// crashRun is one "crash the primary mid-stream and watch the client"
// simulation — the run behind E6, E7, E9 and CollectMetrics: the LAN
// testbed, a push server of a fixed size on both replicas, and one client
// connection read to EOF. The three steps are separate so a caller can
// attach recorders and hooks between them.
type crashRun struct {
	sc   *tcpfailover.Scenario
	conn *tcp.Conn
	recv *apps.Receiver
	// crashedAt is when run fail-stopped the primary; zero until it has.
	crashedAt time.Duration
}

// newCrashRun builds the testbed, not yet started; options, if set, adjusts
// the scenario options (a fault plan, the router's ARP delay).
func newCrashRun(seed, total int64, options func(*tcpfailover.Options)) (*crashRun, error) {
	sc, err := testbed(Failover, seed, options, pushServer(total))
	if err != nil {
		return nil, err
	}
	return &crashRun{sc: sc}, nil
}

// dial starts the testbed and opens the client's connection.
func (r *crashRun) dial() error {
	r.sc.Start()
	conn, err := r.sc.Client.TCP().Dial(r.sc.ServiceAddr(), benchPort)
	if err != nil {
		return err
	}
	r.conn = conn
	r.recv = apps.NewReceiver(conn, r.sc.Sched)
	return nil
}

// run executes events until the client reads EOF. With crashAt > 0 it
// fail-stops the primary once that many bytes have arrived; otherwise the
// crash is left to the scenario's fault schedule. each, if set, observes
// the run after every event (before the crash check) and ends it early by
// returning false. A drained event queue or an hour of virtual time is an
// error, named by what.
func (r *crashRun) run(what string, crashAt int64, each func() bool) error {
	for !r.recv.EOF {
		if !r.sc.Sched.Step() {
			return fmt.Errorf("%s: queue empty (received=%d)", what, r.recv.Received)
		}
		if each != nil && !each() {
			return nil
		}
		if crashAt > 0 && r.crashedAt == 0 && r.recv.Received >= crashAt {
			r.crashedAt = r.sc.Now()
			r.sc.Group.CrashPrimary()
		}
		if r.sc.Now() > time.Hour {
			return fmt.Errorf("%s: timeout (received=%d)", what, r.recv.Received)
		}
	}
	return nil
}

// webCrashWorkload is the workload-zoo entry webCrashFleet drives.
const webCrashWorkload = "web"

// webCrashFleet builds and starts the sharded testbed behind E14 and
// CollectTimeseries: cells on a trunk ring, an HTTP server on every
// replica, span recording on, open-loop web sessions arriving at load
// sessions/s in every cell from time zero until warmup+window (measured
// from warmup), and every cell's primary crashed by the fault schedule at
// the middle of the window. shards <= 0 selects min(cells, Workers). The
// caller arms anything else it needs and runs the fleet to its horizon.
func webCrashFleet(seed int64, cells, shards int, load float64, warmup, window time.Duration) (*tcpfailover.ShardedScenario, error) {
	if shards <= 0 {
		shards = min(cells, Workers)
	}
	cellOpts := tcpfailover.LANOptions()
	cellOpts.Seed = seed
	cellOpts.ServerPorts = []uint16{benchPort}
	cellOpts.Spans = true
	cellOpts.Faults = &fault.Plan{
		Schedule: []fault.Step{{At: warmup + window/2, Op: fault.OpCrashPrimary}},
	}
	ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
		Cells:     cells,
		Shards:    shards,
		Workers:   Workers,
		Cell:      cellOpts,
		CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	for _, cell := range ss.Cells {
		cell.Stream.Use()
		if err := cell.Group.OnEach(func(h *netstack.Host) error { return httpServer(h.TCP()) }); err != nil {
			return nil, fmt.Errorf("cell %d install: %w", cell.Index, err)
		}
	}
	ss.Start()

	spec, err := loadgen.Zoo(webCrashWorkload, load)
	if err != nil {
		return nil, err
	}
	for _, cell := range ss.Cells {
		cell.Stream.Use()
		loadgen.New(loadgen.Config{
			Sched:       cell.Sched,
			Stack:       cell.Client.TCP(),
			Addr:        cell.ServiceAddr(),
			Port:        benchPort,
			Spec:        spec,
			Rand:        fault.NewRand(uint64(seed) + uint64(cell.Index)),
			Stop:        warmup + window,
			MeasureFrom: warmup,
		}).Start(0)
	}
	return ss, nil
}
