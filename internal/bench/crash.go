package bench

import (
	"fmt"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// crashRun is one "crash the primary mid-stream and watch the client"
// simulation — the run behind E7 and CollectMetrics: the LAN testbed, a
// push server of a fixed size on both replicas, and one client connection
// read to EOF. The caller drives it with Scenario.RunUntil.
type crashRun struct {
	sc    *tcpfailover.Scenario
	conn  *tcp.Conn
	recv  *apps.Receiver
	total int64
}

// newCrashRun builds and starts the testbed and opens the client's
// connection; options, if set, adjusts the scenario options (a fault plan,
// span recording).
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

// stall scores the run's one connection span against the fleet marks
// (obs.SpanRecorder.Stall, DESIGN §9.3). It reports false when span
// recording is off or the span records no completed stall.
func (r *crashRun) stall() (obs.StallBreakdown, bool) {
	spans := r.sc.Spans.Spans()
	if len(spans) != 1 {
		return obs.StallBreakdown{}, false
	}
	return r.sc.Spans.Stall(&spans[0])
}

// CollectMetrics runs one instrumented failover scenario (fixed seed,
// primary crashed once half the stream has arrived) and returns its
// metrics registry — the workload behind failover-bench -metrics-out. The
// snapshot is a function of the seed only.
func CollectMetrics() (*obs.Registry, error) {
	const total = 256 * 1024
	r, err := newCrashRun(424242, total, nil)
	if err != nil {
		return nil, err
	}
	if err := r.sc.RunUntil(func() bool { return r.recv.Received >= total/2 }, time.Hour); err != nil {
		return nil, fmt.Errorf("collect-metrics: %w", err)
	}
	r.sc.Group.Crash(0)
	if err := r.sc.RunUntil(func() bool { return r.recv.EOF }, time.Hour); err != nil {
		return nil, fmt.Errorf("collect-metrics: %w", err)
	}
	return r.sc.Obs, nil
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
