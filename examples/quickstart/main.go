// Quickstart: a replicated echo server that survives a primary crash in the
// middle of a client connection — the paper's headline capability.
//
// The example builds the paper's Figure 1 topology (client, router, primary
// and secondary on a server LAN), installs an echo service on both
// replicas, streams data through one TCP connection, kills the primary
// halfway, and shows the same connection finishing against the secondary
// with every byte intact.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{7} // the echo port
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return err
	}

	// Active replication: the identical, deterministic application is
	// installed on the primary and the secondary.
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 7)
		return err
	}); err != nil {
		return err
	}
	sc.Start() // fault detectors begin exchanging heartbeats

	// The client connects to the service address (the primary's) and
	// streams 1 MB, verifying the echoed bytes.
	const total = 1 << 20
	tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 7, total)
	if err != nil {
		return err
	}
	echo := apps.NewReceiver(tr.Conn, sc.Sched)
	tr.OnClosed = func(err error) {
		if err != nil {
			fmt.Println("connection closed with error:", err)
		}
	}

	// Let the transfer reach the halfway point, then fail the primary.
	if err := sc.RunUntil(func() bool { return echo.Received > total/2 }, time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  %d/%d bytes echoed — crashing the primary now\n",
		sc.Now().Seconds()*1e3, echo.Received, total)
	sc.Group.Crash(0)

	if err := sc.RunUntil(func() bool { return echo.Received == total }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  final byte received; stream recovered through the secondary\n",
		sc.Now().Seconds()*1e3)
	if err := sc.RunUntil(func() bool { return tr.Closed > 0 }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  connection closed cleanly (the client now lingers in TIME-WAIT)\n", sc.Now().Seconds()*1e3)
	fmt.Printf("sent %d, received %d, corruption at %d (-1 = none)\n", tr.Sent, echo.Received, echo.BadAt)
	fmt.Printf("secondary bridge: %+v\n", sc.Group.SecondaryBridge().Stats())
	if echo.Received != total || echo.BadAt >= 0 {
		return fmt.Errorf("stream damaged across failover")
	}
	fmt.Println("the TCP connection survived the primary's failure transparently")
	return nil
}
