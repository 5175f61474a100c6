// Package bench implements the paper's evaluation (section 9) as
// reproducible experiments over the simulated testbed, plus extension
// experiments measuring failover. Each experiment builds fresh scenarios,
// drives the workload in virtual time, and reports statistics in the units
// the paper uses. The cmd/failover-bench tool prints each result next to
// the paper's published numbers.
package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/metrics"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// Mode selects the baseline or the replicated system.
type Mode int

// Modes.
const (
	Standard Mode = iota + 1 // unreplicated server, plain TCP
	Failover                 // replicated server behind the bridges
)

// String names the mode the way the paper's tables do.
func (m Mode) String() string {
	if m == Standard {
		return "standard TCP"
	}
	return "TCP Failover"
}

// MarshalJSON writes the mode's name rather than its ordinal, so the
// trajectory file is readable without this package's constants.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON reads the name MarshalJSON wrote, so a trajectory file can be
// loaded back and rendered.
func (m *Mode) UnmarshalJSON(b []byte) error {
	for _, mode := range []Mode{Standard, Failover} {
		if string(b) == `"`+mode.String()+`"` {
			*m = mode
			return nil
		}
	}
	return fmt.Errorf("bench: unknown mode %s", b)
}

// Figure3Sizes are the paper's message lengths (64 bytes to 1 MByte).
var Figure3Sizes = []int64{
	64, 256, 1024, 4096, 16384, 32768, 65536,
	131072, 262144, 524288, 1048576,
}

// SendPacing models the send(2) call cost on the paper's client (system
// call entry plus user-to-kernel copy); it shapes the sub-buffer-size
// region of Figure 3.
var SendPacing = apps.Pacing{Fixed: 20 * time.Microsecond, PerKB: 10 * time.Microsecond}

// FTPPutPacing models the user-space FTP client's write-loop cost, which
// dominates the paper's figure 6 put rates for files that fit in the send
// buffer (calibrated; see EXPERIMENTS.md).
var FTPPutPacing = apps.Pacing{Fixed: 100 * time.Microsecond, PerKB: 300 * time.Microsecond}

const benchPort = 9000

// testbed builds the LAN scenario every LAN experiment starts from: the
// mode's topology seeded with seed, benchPort reserved for the experiment's
// app, options (if set) applied on top, and install run on the TCP stack of
// every server host. The scenario is returned not yet started.
func testbed(mode Mode, seed int64, options func(*tcpfailover.Options), install func(*tcp.Stack) error) (*tcpfailover.Scenario, error) {
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.Unreplicated = mode == Standard
	opts.ServerPorts = []uint16{benchPort}
	if options != nil {
		options(&opts)
	}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return nil, err
	}
	simsBuilt.Add(1)
	return sc, installOnServers(sc, func(h *netstack.Host) error { return install(h.TCP()) })
}

// installOnServers runs the installer on the server host(s).
func installOnServers(sc *tcpfailover.Scenario, install func(h *netstack.Host) error) error {
	if sc.Group != nil {
		return sc.Group.OnEach(install)
	}
	return install(sc.Primary)
}

// The install functions of the server apps several experiments share.
func sinkServer(s *tcp.Stack) error     { _, err := apps.NewSinkServer(s, benchPort); return err }
func reqReplyServer(s *tcp.Stack) error { _, err := apps.NewReqReplyServer(s, benchPort); return err }
func httpServer(s *tcp.Stack) error     { _, err := apps.NewHTTPServer(s, benchPort); return err }
func pushServer(total int64) func(*tcp.Stack) error {
	return func(s *tcp.Stack) error { _, err := apps.NewPushServer(s, benchPort, total); return err }
}

// --- E1: connection setup time ----------------------------------------------

// ConnSetupResult reports experiment E1.
type ConnSetupResult struct {
	Mode   Mode          `json:"mode"`
	N      int           `json:"n"`
	Median time.Duration `json:"median_ns"`
	Max    time.Duration `json:"max_ns"`
	Min    time.Duration `json:"min_ns"`
}

// ConnectionSetup measures the client-observed connect() latency over n
// connections with warm ARP caches (paper section 9, first measurement).
// The n independent simulations run across Workers goroutines; each is
// fully determined by its seed, so the result is the same for any worker
// count.
func ConnectionSetup(mode Mode, n int) (ConnSetupResult, error) {
	durs := make([]time.Duration, n)
	err := parallelEach(n, func(i int) error {
		sc, err := testbed(mode, int64(1000+i), nil, sinkServer)
		if err != nil {
			return err
		}
		sc.Start()
		// Let heartbeats settle so detector traffic is steady-state.
		if err := sc.Run(5 * time.Millisecond); err != nil {
			return err
		}
		start := sc.Now()
		conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
		if err != nil {
			return err
		}
		established := time.Duration(0)
		conn.OnEstablished(func() { established = sc.Now() })
		if err := sc.RunUntil(func() bool { return established > 0 }, start+5*time.Second); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
		durs[i] = established - start
		conn.Abort()
		return nil
	})
	if err != nil {
		return ConnSetupResult{}, err
	}
	var d metrics.Durations
	for _, v := range durs {
		d.Add(v)
	}
	return ConnSetupResult{Mode: mode, N: n, Median: d.Median(), Max: d.Max(), Min: d.Min()}, nil
}

func us(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/1e3) }

func renderConnSetup(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E1: connection setup time (paper sec. 9) ===")
	fmt.Fprintln(w, "paper:    standard TCP median 294 us, max 603 us")
	fmt.Fprintln(w, "paper:    TCP Failover median 505 us, max 1193 us")
	for _, p := range r.ConnSetup {
		fmt.Fprintf(w, "measured: %-12s median %s us, max %s us (n=%d)\n",
			p.Mode, us(p.Median), us(p.Max), p.N)
	}
	fmt.Fprintln(w)
}

// --- E2: Figure 3, client-to-server send time --------------------------------

// TransferPoint is one curve point of Figures 3 and 4.
type TransferPoint struct {
	Size   int64         `json:"size"`
	Median time.Duration `json:"median_ns"`
}

// ClientToServerSend measures, per message size, the time for the client
// application to pass a message to the stack (the paper's Figure 3): "the
// send call returns when the application has passed the last byte to the
// stack, not when the last byte has been put on the wire."
func ClientToServerSend(mode Mode, sizes []int64, reps int) ([]TransferPoint, error) {
	return transferCurve(mode, sizes, reps, 2000, sinkServer,
		func(sc *tcpfailover.Scenario, size int64) (time.Duration, error) {
			tr, err := apps.NewBulkSendPaced(sc.Client.TCP(), sc.Sched,
				sc.ServiceAddr(), benchPort, size, SendPacing)
			if err != nil {
				return 0, err
			}
			if err := sc.RunUntil(func() bool { return tr.Done || tr.Err != nil }, 10*time.Minute); err != nil {
				return 0, err
			}
			return tr.SendDone - tr.Established, tr.Err
		})
}

// transferCurve is the shape Figures 3 and 4 share: for every cell of the
// size × rep grid, a fresh testbed (seed seed0+rep, the given server app)
// on which measure times one transfer of that size; the curve is the median
// over reps per size. The grid is flattened into independent jobs; each
// simulation's outcome depends only on (mode, size, seed), so the fan-out
// preserves the sequential results exactly.
func transferCurve(mode Mode, sizes []int64, reps int, seed0 int64, server func(*tcp.Stack) error,
	measure func(sc *tcpfailover.Scenario, size int64) (time.Duration, error)) ([]TransferPoint, error) {
	durs := make([]time.Duration, len(sizes)*reps)
	err := parallelEach(len(durs), func(j int) error {
		size, rep := sizes[j/reps], j%reps
		sc, err := testbed(mode, seed0+int64(rep), nil, server)
		if err != nil {
			return err
		}
		sc.Start()
		if durs[j], err = measure(sc, size); err != nil {
			return fmt.Errorf("size %d rep %d: %w", size, rep, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]TransferPoint, 0, len(sizes))
	for si, size := range sizes {
		var d metrics.Durations
		for _, v := range durs[si*reps : (si+1)*reps] {
			d.Add(v)
		}
		out = append(out, TransferPoint{Size: size, Median: d.Median()})
	}
	return out, nil
}

// renderTransfer prints the rows Figures 3 and 4 share.
func renderTransfer(w io.Writer, column string, std, fo []TransferPoint) {
	fmt.Fprintf(w, "%12s %18s %18s %8s\n", column, "standard TCP [us]", "TCP Failover [us]", "ratio")
	for i := range std {
		ratio := float64(fo[i].Median) / float64(std[i].Median)
		fmt.Fprintf(w, "%12d %18s %18s %8.2f\n", std[i].Size, us(std[i].Median), us(fo[i].Median), ratio)
	}
	fmt.Fprintln(w)
}

func renderFig3(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E2: Figure 3, client-to-server send time ===")
	fmt.Fprintln(w, "(median time for the client application to send a message;")
	fmt.Fprintln(w, " paper shape: sub-32KB region grows slowly due to the 64 KB")
	fmt.Fprintln(w, " send buffer, larger messages grow at wire rate, failover above standard)")
	renderTransfer(w, "msg bytes", r.Fig3Std, r.Fig3Fo)
}

// --- E3: Figure 4, server-to-client transfer ---------------------------------

// ServerToClientTransfer measures, per reply size, the time from the client
// starting to send a 4-byte request until it receives the last byte of the
// reply (the paper's Figure 4).
func ServerToClientTransfer(mode Mode, sizes []int64, reps int) ([]TransferPoint, error) {
	return transferCurve(mode, sizes, reps, 3000, reqReplyServer,
		func(sc *tcpfailover.Scenario, size int64) (time.Duration, error) {
			cl, err := apps.NewReqReplyClient(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), benchPort)
			if err != nil {
				return 0, err
			}
			var elapsed time.Duration
			done := false
			cl.Request(size, func(e time.Duration) {
				elapsed = e
				done = true
			})
			err = sc.RunUntil(func() bool { return done }, 10*time.Minute)
			cl.Conn.Abort()
			return elapsed, err
		})
}

func renderFig4(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E3: Figure 4, server-to-client transfer time ===")
	fmt.Fprintln(w, "(client sends a 4-byte request; median time until the last byte")
	fmt.Fprintln(w, " of the sized reply arrives; paper shape as figure 3)")
	renderTransfer(w, "reply bytes", r.Fig4Std, r.Fig4Fo)
}

// --- E4: Figure 5, stream rates ----------------------------------------------

// RateResult reports experiment E4 for one mode.
type RateResult struct {
	Mode       Mode          `json:"mode"`
	Bytes      int64         `json:"bytes"`
	SendKBps   float64       `json:"send_kbps"` // client-to-server
	RecvKBps   float64       `json:"recv_kbps"` // server-to-client
	SendElapse time.Duration `json:"send_elapse_ns"`
	RecvElapse time.Duration `json:"recv_elapse_ns"`
}

// StreamRates measures sustained send and receive rates with streams of
// total bytes (the paper's Figure 5 uses 100 MBytes).
func StreamRates(mode Mode, total int64) (RateResult, error) {
	return streamRates(mode, total, nil)
}

// streamRates is StreamRates with an optional scenario-option mutator,
// which the ablation experiment uses to toggle individual design choices.
func streamRates(mode Mode, total int64, mutate func(*tcpfailover.Options)) (RateResult, error) {
	res := RateResult{Mode: mode, Bytes: total}

	// The two directions are independent simulations (seeds 4000 and 4001)
	// writing disjoint fields of res; run them on separate workers.
	// parallelEach reports the lowest-indexed error, so a send-direction
	// failure wins, matching the old sequential order.
	err := parallelEach(2, func(dir int) error {
		if dir == 0 {
			// Send direction: client -> server.
			var sink *apps.SinkServer
			sc, err := testbed(mode, 4000, mutate, func(st *tcp.Stack) error {
				s, err := apps.NewSinkServer(st, benchPort)
				if sink == nil {
					sink = s
				}
				return err
			})
			if err != nil {
				return err
			}
			sc.Start()
			tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), benchPort, total)
			if err != nil {
				return err
			}
			if err := sc.RunUntil(func() bool { return sink.Received >= total || tr.Err != nil },
				24*time.Hour); err != nil {
				return fmt.Errorf("send stream: %w", err)
			}
			if tr.Err != nil {
				return fmt.Errorf("send stream: %w", tr.Err)
			}
			// Rate over the whole transfer: connection established until the
			// server application has consumed the last byte.
			res.SendElapse = sc.Now() - tr.Established
			res.SendKBps = metrics.RateKBps(total, res.SendElapse)
			return nil
		}

		// Receive direction: server -> client.
		sc2, err := testbed(mode, 4001, mutate, pushServer(total))
		if err != nil {
			return err
		}
		sc2.Start()
		conn, err := sc2.Client.TCP().Dial(sc2.ServiceAddr(), benchPort)
		if err != nil {
			return err
		}
		recv := apps.NewReceiver(conn, sc2.Sched)
		var established2 time.Duration
		conn.OnEstablished(func() { established2 = sc2.Now() })
		if err := sc2.RunUntil(func() bool { return recv.EOF }, 24*time.Hour); err != nil {
			return fmt.Errorf("recv stream: %w", err)
		}
		if recv.BadAt >= 0 {
			return fmt.Errorf("recv stream corrupted at %d", recv.BadAt)
		}
		res.RecvElapse = recv.EOFAt - established2
		res.RecvKBps = metrics.RateKBps(recv.Received, res.RecvElapse)
		return nil
	})
	return res, err
}

func renderFig5(w io.Writer, r *Results) {
	if len(r.Fig5) != 2 {
		return
	}
	std, fo := r.Fig5[0], r.Fig5[1]
	fmt.Fprintln(w, "=== E4: Figure 5, send/receive rates for long streams ===")
	fmt.Fprintf(w, "(streams of %d MB)\n", recordStream/(1024*1024))
	fmt.Fprintln(w, "paper:    standard TCP  send 7833.70 KB/s   receive 8707.88 KB/s")
	fmt.Fprintln(w, "paper:    TCP Failover  send 5835.80 KB/s   receive 3510.03 KB/s")
	fmt.Fprintf(w, "measured: %-13s send %8.2f KB/s   receive %8.2f KB/s\n", std.Mode, std.SendKBps, std.RecvKBps)
	fmt.Fprintf(w, "measured: %-13s send %8.2f KB/s   receive %8.2f KB/s\n", fo.Mode, fo.SendKBps, fo.RecvKBps)
	fmt.Fprintf(w, "ratios:   send %.2f (paper 0.74)   receive %.2f (paper 0.40)\n",
		fo.SendKBps/std.SendKBps, fo.RecvKBps/std.RecvKBps)
	fmt.Fprintln(w)
}

// --- E5: Figure 6, FTP over a WAN ---------------------------------------------

// FTPPoint is one row of the paper's Figure 6.
type FTPPoint struct {
	Name    string  `json:"name"`
	FileKB  float64 `json:"file_kb"`
	GetKBps float64 `json:"get_kbps"`
	PutKBps float64 `json:"put_kbps"`
}

// FTPRates transfers the paper's file set over the WAN profile and reports
// median get and put rates as indicated by the FTP client.
func FTPRates(mode Mode, reps int) ([]FTPPoint, error) {
	files := apps.DefaultFTPFiles()
	names := files.Names()

	// Each rep is one full FTP session in its own simulation; collect each
	// rep's rates in a private slot, then merge in rep order so the median
	// input sequence matches the sequential run.
	type repRates struct {
		get, put map[string]float64
		gotGet   map[string]bool
		gotPut   map[string]bool
	}
	slots := make([]repRates, reps)
	err := parallelEach(reps, func(rep int) error {
		opts := tcpfailover.WANOptions()
		opts.Seed = int64(5000 + rep)
		opts.Unreplicated = mode == Standard
		opts.ServerPorts = []uint16{apps.FTPControlPort, apps.FTPDataPort}
		sc, err := tcpfailover.NewScenario(opts)
		if err != nil {
			return err
		}
		simsBuilt.Add(1)
		if err := installOnServers(sc, func(h *netstack.Host) error {
			_, err := apps.NewFTPServer(h.TCP(), files)
			return err
		}); err != nil {
			return err
		}
		sc.Start()
		cl, err := apps.NewFTPClient(sc.Client.TCP(), sc.Sched,
			tcpfailover.ClientAddr, sc.ServiceAddr())
		if err != nil {
			return err
		}
		slot := &slots[rep]
		slot.get = make(map[string]float64, len(names))
		slot.put = make(map[string]float64, len(names))
		slot.gotGet = make(map[string]bool, len(names))
		slot.gotPut = make(map[string]bool, len(names))
		cl.PutPacing = FTPPutPacing
		cl.Login(nil)
		for _, name := range names {
			n := name
			cl.Get(n, func(r apps.FTPResult) {
				if r.Err == nil && r.BadAt < 0 {
					slot.get[n], slot.gotGet[n] = r.RateKBps, true
				}
			})
			cl.Put("up-"+n, files[n], func(r apps.FTPResult) {
				if r.Err == nil {
					slot.put[n], slot.gotPut[n] = r.RateKBps, true
				}
			})
		}
		done := false
		cl.Done = func() { done = true }
		cl.Quit()
		if err := sc.RunUntil(func() bool { return done }, 24*time.Hour); err != nil {
			return fmt.Errorf("ftp rep %d: %w", rep, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	getRates := make(map[string][]float64, len(names))
	putRates := make(map[string][]float64, len(names))
	for _, slot := range slots {
		for _, name := range names {
			if slot.gotGet[name] {
				getRates[name] = append(getRates[name], slot.get[name])
			}
			if slot.gotPut[name] {
				putRates[name] = append(putRates[name], slot.put[name])
			}
		}
	}

	out := make([]FTPPoint, 0, len(names))
	for _, name := range names {
		var get, put metrics.Floats
		for _, v := range getRates[name] {
			get.Add(v)
		}
		for _, v := range putRates[name] {
			put.Add(v)
		}
		out = append(out, FTPPoint{
			Name:    name,
			FileKB:  float64(files[name]) / 1024.0,
			GetKBps: get.Median(),
			PutKBps: put.Median(),
		})
	}
	return out, nil
}

func renderFig6(w io.Writer, r *Results) {
	std, fo := r.Fig6Std, r.Fig6Fo
	fmt.Fprintln(w, "=== E5: Figure 6, FTP get/put rates over a WAN [KB/s] ===")
	fmt.Fprintln(w, "paper (get std/fo, put std/fo):")
	fmt.Fprintln(w, "  0.2 KB:    8.75/8.75      512.38/536.05")
	fmt.Fprintln(w, "  1.3 KB:    59.03/59.03    2033.76/2036.87")
	fmt.Fprintln(w, "  18.2 KB:   90.41/70.74    3846.13/3890.42")
	fmt.Fprintln(w, "  144.9 KB:  156.80/138.35  219.52/200.31")
	fmt.Fprintln(w, "  1738.1 KB: 176.03/171.72  168.07/176.63")
	fmt.Fprintf(w, "%12s %12s | %10s %10s | %10s %10s\n",
		"file", "size [KB]", "get std", "get fo", "put std", "put fo")
	for i := range std {
		fmt.Fprintf(w, "%12s %12.1f | %10.2f %10.2f | %10.2f %10.2f\n",
			std[i].Name, std[i].FileKB, std[i].GetKBps, fo[i].GetKBps,
			std[i].PutKBps, fo[i].PutKBps)
	}
	fmt.Fprintln(w)
}

// --- Ablations: design choices toggled one at a time ---------------------------

// AblationRow is one configuration's stream rates.
type AblationRow struct {
	Name     string  `json:"name"`
	SendKBps float64 `json:"send_kbps"`
	RecvKBps float64 `json:"recv_kbps"`
}

// Ablation reruns the Figure 5 workload with individual design choices
// switched off, quantifying their contribution (DESIGN.md section 8.1).
func Ablation(total int64) ([]AblationRow, error) {
	configs := []struct {
		name   string
		mode   Mode
		mutate func(*tcpfailover.Options)
	}{
		{"standard TCP (reference)", Standard, nil},
		{"failover (default)", Failover, nil},
		{"failover, free bridge CPU", Failover, func(o *tcpfailover.Options) {
			o.HostProfile = netstack.DefaultProfile()
			o.HostProfile.BridgeDelay = time.Microsecond
			o.HostProfile.BridgeInbound = 0
		}},
		{"failover, full-duplex LAN (no collisions)", Failover, func(o *tcpfailover.Options) {
			o.ServerLAN.HalfDuplex = false
			o.ServerLAN.CollisionProb = 0
			o.ClientLink.HalfDuplex = false
			o.ClientLink.CollisionProb = 0
		}},
		{"three-way daisy chain (extension)", Failover, func(o *tcpfailover.Options) {
			o.Backups = 2
		}},
	}
	out := make([]AblationRow, len(configs))
	err := parallelEach(len(configs), func(ci int) error {
		cfg := configs[ci]
		r, err := streamRates(cfg.mode, total, cfg.mutate)
		if err != nil {
			return fmt.Errorf("ablation %q: %w", cfg.name, err)
		}
		out[ci] = AblationRow{Name: cfg.name, SendKBps: r.SendKBps, RecvKBps: r.RecvKBps}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func renderAblation(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== Ablations: design choices toggled one at a time ===")
	fmt.Fprintf(w, "(figure-5 workload, %d MB streams)\n", recordStream/4/(1024*1024))
	for _, row := range r.Ablation {
		fmt.Fprintf(w, "%-42s send %8.2f KB/s   receive %8.2f KB/s\n", row.Name, row.SendKBps, row.RecvKBps)
	}
	fmt.Fprintln(w)
}
