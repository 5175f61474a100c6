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
// connection read to EOF.
type crashRun struct {
	sc    *tcpfailover.Scenario
	conn  *tcp.Conn
	recv  *apps.Receiver
	total int64

	// The receiver's byte timeline, watched after every event: when it
	// last grew, whether the primary was already down then, and the
	// longest gap between two growths that began with it down — the
	// client-visible stall E6 and E7 report.
	prevReceived int64
	lastProgress time.Duration
	sinceCrash   bool
	maxGap       time.Duration
}

// newCrashRun builds and starts the testbed and opens the client's
// connection; options, if set, adjusts the scenario options (a fault plan,
// the router's ARP delay, span recording).
func newCrashRun(seed, total int64, options func(*tcpfailover.Options)) (*crashRun, error) {
	sc, err := testbed(Failover, seed, options, pushServer(total))
	if err != nil {
		return nil, err
	}
	sc.Start()
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
	if err != nil {
		return nil, err
	}
	return &crashRun{sc: sc, conn: conn, recv: apps.NewReceiver(conn, sc.Sched), total: total}, nil
}

// intact reports whether the client read the whole stream, every byte
// exactly once and in order.
func (r *crashRun) intact() bool {
	return r.recv.EOF && r.recv.BadAt < 0 && r.recv.Received == r.total
}

// run executes events until the client reads EOF. With crashAt > 0 it
// fail-stops the primary once that many bytes have arrived; otherwise the
// crash is left to the scenario's fault schedule. alive, if set, is asked
// after every event and ends the run early by returning false. A drained
// event queue or an hour of virtual time is an error, named by what.
func (r *crashRun) run(what string, crashAt int64, alive func() bool) error {
	for !r.recv.EOF {
		if !r.sc.Sched.Step() {
			return fmt.Errorf("%s: queue empty (received=%d)", what, r.recv.Received)
		}
		if crashAt > 0 && r.sc.Primary.Alive() && r.recv.Received >= crashAt {
			r.sc.Group.CrashPrimary()
		}
		if r.recv.Received != r.prevReceived {
			if r.sinceCrash {
				r.maxGap = max(r.maxGap, r.sc.Now()-r.lastProgress)
			}
			r.prevReceived = r.recv.Received
			r.lastProgress = r.sc.Now()
			r.sinceCrash = !r.sc.Primary.Alive()
		}
		if alive != nil && !alive() {
			return nil
		}
		if r.sc.Now() > time.Hour {
			return fmt.Errorf("%s: timeout (received=%d)", what, r.recv.Received)
		}
	}
	return nil
}

// webWorkload is the workload-zoo entry E12 and webCrashFleet drive.
const webWorkload = "web"

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
	simsBuilt.Add(1)
	for _, cell := range ss.Cells {
		cell.Stream.Use()
		if err := cell.Group.OnEach(func(h *netstack.Host) error { return httpServer(h.TCP()) }); err != nil {
			return nil, fmt.Errorf("cell %d install: %w", cell.Index, err)
		}
	}
	ss.Start()

	spec, err := loadgen.Zoo(webWorkload, load)
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
