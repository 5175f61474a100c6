package bench

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
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
			r.sc.Group.Crash(0)
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

// webCrashFleet builds and starts the testbed cells behind E14 and
// CollectTimeseries (tcpfailover.NewCells): an HTTP server on every replica,
// span recording on, open-loop web sessions arriving at load sessions/s in
// every cell from time zero until warmup+window (measured from warmup), and
// every cell's primary crashed by the fault schedule at the middle of the
// window. The caller arms anything else it needs and runs each cell to its
// horizon; cells share nothing, so they may run on separate goroutines.
func webCrashFleet(seed int64, cells int, load float64, warmup, window time.Duration) ([]*tcpfailover.Scenario, error) {
	cellOpts := tcpfailover.LANOptions()
	cellOpts.Seed = seed
	cellOpts.ServerPorts = []uint16{benchPort}
	cellOpts.Spans = true
	cellOpts.Faults = &fault.Plan{
		Schedule: []fault.Step{{At: warmup + window/2, Op: fault.OpCrashPrimary}},
	}
	fleet, err := tcpfailover.NewCells(cells, cellOpts)
	if err != nil {
		return nil, err
	}
	simsBuilt.Add(1)
	spec, err := loadgen.Zoo(webWorkload, load)
	if err != nil {
		return nil, err
	}
	for i, sc := range fleet {
		if err := sc.Group.OnEach(func(h *netstack.Host) error { return httpServer(h.TCP()) }); err != nil {
			return nil, fmt.Errorf("cell %d install: %w", i, err)
		}
		sc.Start()
		loadgen.New(loadgen.Config{
			Sched:       sc.Sched,
			Stack:       sc.Client.TCP(),
			Addr:        sc.ServiceAddr(),
			Port:        benchPort,
			Spec:        spec,
			Rand:        fault.NewRand(uint64(seed) + uint64(i)),
			Stop:        warmup + window,
			MeasureFrom: warmup,
		}).Start(0)
	}
	return fleet, nil
}

// runFleet runs every cell across the bench workers up to, not including,
// horizon: a scheduler's RunUntil bound is closed, so horizon-1 executes
// the events before horizon and none at it.
func runFleet(fleet []*tcpfailover.Scenario, horizon time.Duration) error {
	return parallelEach(len(fleet), func(i int) error { return fleet[i].Sched.RunUntil(horizon - 1) })
}
