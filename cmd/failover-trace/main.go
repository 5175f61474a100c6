// Command failover-trace runs a small replicated-echo scenario, crashes the
// primary mid-stream, and dumps the full annotated packet trace — the
// fastest way to watch the paper's protocol at work: the secondary snooping
// in promiscuous mode, its diverted segments carrying the
// original-destination option, the primary bridge's merged segments with
// min-ACK/min-window, the gratuitous-ARP takeover, and the client-driven
// recovery afterward.
//
// Usage:
//
//	failover-trace [-seed N] [-bytes N] [-crash-at N] [-no-crash]
//	               [-hosts client,primary,secondary,router]
//	               [-pcap out.pcap] [-perfetto out.json]
//
// The traced hosts feed one obs flight recorder; the text lines are its
// records as they are captured, and with -pcap the same records are
// written as a standard pcap file, readable by tcpdump and Wireshark.
//
// With -perfetto, the run records per-connection lifecycle spans and a
// sampled metrics timeseries and writes them as Chrome trace-event JSON —
// load the file at ui.perfetto.dev to see the connection's setup and stall
// slices, the fleet failure/detect/takeover marks, and counter tracks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/trace"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "simulation seed (every run is a pure function of it)")
		total   = flag.Int64("bytes", 16*1024, "bytes to echo through the connection")
		crashAt = flag.Int64("crash-at", -1, "crash the primary after this many echoed bytes (-1 = half)")
		noCrash = flag.Bool("no-crash", false, "fault-free run")
		hosts   = flag.String("hosts", "client,primary,secondary,router",
			"comma-separated hosts to trace")
		pcapOut = flag.String("pcap", "", "write the traced packets to this pcap file")
		perfOut = flag.String("perfetto", "",
			"write connection spans and sampled metrics as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if err := run(*seed, *total, *crashAt, *noCrash, *hosts, *pcapOut, *perfOut); err != nil {
		fmt.Fprintln(os.Stderr, "failover-trace:", err)
		os.Exit(1)
	}
}

func run(seed, total, crashAt int64, noCrash bool, hosts, pcapOut, perfOut string) error {
	if total <= 0 {
		return fmt.Errorf("-bytes %d: want a positive byte count", total)
	}
	if crashAt > total {
		return fmt.Errorf("-crash-at %d: past the end of the %d-byte transfer", crashAt, total)
	}
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerPorts = []uint16{7}
	opts.Spans = perfOut != ""
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return err
	}
	// mark prints one annotation line in the packet lines' layout.
	mark := func(format string, args ...any) {
		fmt.Printf("%s ***           %s\n", trace.Stamp(sc.Now()), fmt.Sprintf(format, args...))
	}
	mark("run header: seed=%d bytes=%d hosts=%s", seed, total, hosts)
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 7)
		return err
	}); err != nil {
		return err
	}
	sc.Start()

	byName := map[string]*netstack.Host{
		"client":    sc.Client,
		"primary":   sc.Primary,
		"secondary": sc.Secondary,
		"router":    sc.Router,
	}
	// One recorder behind both outputs: each record is printed as it is
	// captured, and retained only when a capture file wants the whole run
	// (a generous bound, so the file holds every traced event, not the tail).
	capacity := 1
	if pcapOut != "" {
		capacity = 1 << 20
	}
	rec := obs.NewRecorder(capacity, obs.DefaultSnapLen)
	rec.SetSink(func(r obs.Record) { os.Stdout.WriteString(trace.Line(r)) })
	for _, name := range strings.Split(hosts, ",") {
		h, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown host %q", name)
		}
		h.AttachRecorder(rec)
	}

	if crashAt < 0 {
		crashAt = total / 2
	}
	tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 7, total)
	if err != nil {
		return err
	}
	echo := apps.NewReceiver(tr.Conn, sc.Sched)

	var sampler *obs.Sampler
	if perfOut != "" {
		// The sampler rides the simulation as an ordinary recurring event, so
		// every sample lands on the deterministic sim-time grid. Ticking stops
		// with the transfer: the long post-close quiet period would otherwise
		// wrap the ring past the failover window the trace is about.
		const period = 10 * time.Millisecond
		sampler = obs.NewSampler(sc.Obs, period, 4096)
		var tick func()
		tick = func() {
			sampler.Sample(sc.Now())
			if echo.Received < total {
				sc.Sched.After(period, "obs.sample", tick)
			}
		}
		sc.Sched.After(period, "obs.sample", tick)
	}

	if !noCrash {
		if err := sc.RunUntil(func() bool { return echo.Received >= crashAt }, time.Minute); err != nil {
			return err
		}
		mark("primary crashes (echoed %d bytes)", echo.Received)
		sc.Group.Crash(0)
	}
	if err := sc.RunUntil(func() bool { return echo.Received == total }, 10*time.Minute); err != nil {
		return err
	}
	if echo.BadAt >= 0 {
		return fmt.Errorf("echoed stream corrupt at byte %d", echo.BadAt)
	}
	mark("transfer complete (%d bytes, %d trace events)", echo.Received, rec.Total())
	// The client's Transfer is Closed as it enters TIME-WAIT; the run ends
	// once its last ACK has closed the members' ends, not after its 2 MSL.
	if err := sc.RunUntil(func() bool {
		return tr.Closed > 0 && len(sc.Primary.TCP().Endpoints())+len(sc.Secondary.TCP().Endpoints()) == 0
	}, 10*time.Minute); err != nil {
		return err
	}
	mark("connection closed")
	if pcapOut != "" {
		if err := writeFile(pcapOut, func(w io.Writer) error { return obs.WritePcap(w, rec.Records()) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d packets to %s\n", rec.Len(), pcapOut)
	}
	if perfOut != "" {
		sampler.Sample(sc.Now()) // close the counter tracks at the end of the run
		if err := writeFile(perfOut, func(w io.Writer) error {
			return obs.WritePerfetto(w, sc.Spans, sampler.Timeseries())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %d connection spans to %s\n", sc.Spans.Len(), perfOut)
	}
	return nil
}

// writeFile creates path and hands it to write; the first error wins.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
