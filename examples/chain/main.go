// Chain: three-way daisy-chained replication — the extension the paper
// sketches in its introduction ("Higher degrees of replication can be
// achieved by daisy-chaining multiple backup servers"). A client connection
// survives the failure of *two* of the three replicas, one after the other:
// first the head dies (the middle is promoted via the section 5 takeover),
// then the promoted head dies too (the tail performs a second takeover).
//
// Run with: go run ./examples/chain
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
		fmt.Fprintln(os.Stderr, "chain:", err)
		os.Exit(1)
	}
}

func run() error {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{7}
	opts.Backups = 2 // head <- middle <- tail
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return err
	}
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 7)
		return err
	}); err != nil {
		return err
	}
	sc.Group.OnFailover = func(pos int) {
		names := []string{"head", "middle", "tail"}
		fmt.Printf("t=%9.3fms  chain reconfigured after losing the %s\n",
			sc.Now().Seconds()*1e3, names[pos])
	}
	sc.Start()

	const total = 1 << 20
	tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 7, total)
	if err != nil {
		return err
	}
	echo := apps.NewReceiver(tr.Conn, sc.Sched)

	// First crash: the head, at one third of the stream.
	if err := sc.RunUntil(func() bool { return echo.Received > total/3 }, time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%9.3fms  %d/%d bytes echoed — crashing the HEAD\n",
		sc.Now().Seconds()*1e3, echo.Received, total)
	sc.Group.Crash(0)

	// Second crash: the promoted middle, at two thirds.
	if err := sc.RunUntil(func() bool { return echo.Received > 2*total/3 }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%9.3fms  %d/%d bytes echoed — crashing the PROMOTED MIDDLE\n",
		sc.Now().Seconds()*1e3, echo.Received, total)
	sc.Group.Crash(1)

	if err := sc.RunUntil(func() bool { return echo.Received == total }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%9.3fms  final byte received — the connection outlived two of three replicas\n",
		sc.Now().Seconds()*1e3)
	fmt.Printf("sent %d, received %d, corruption at %d (-1 = none)\n", tr.Sent, echo.Received, echo.BadAt)
	if echo.Received != total || echo.BadAt >= 0 {
		return fmt.Errorf("stream damaged")
	}
	return nil
}
