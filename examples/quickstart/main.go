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
	"io"
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
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 7)
	if err != nil {
		return err
	}
	var sent, received int64
	badAt := int64(-1)
	closed := false
	chunk := make([]byte, 16*1024)
	pump := func() {
		for sent < total {
			n := min(int64(len(chunk)), total-sent)
			apps.Pattern(chunk[:n], sent)
			m, err := conn.Write(chunk[:n])
			if err != nil || m == 0 {
				return
			}
			sent += int64(m)
		}
		conn.Close()
	}
	rbuf := make([]byte, 16*1024)
	conn.OnEstablished(pump)
	conn.OnWritable(pump)
	conn.OnReadable(func() {
		for {
			n, err := conn.Read(rbuf)
			if n > 0 {
				if badAt < 0 {
					if i := apps.VerifyPattern(rbuf[:n], received); i >= 0 {
						badAt = received + int64(i)
					}
				}
				received += int64(n)
				continue
			}
			if err == io.EOF || n == 0 {
				return
			}
		}
	})
	conn.OnClose(func(err error) {
		closed = true
		if err != nil {
			fmt.Println("connection closed with error:", err)
		}
	})

	// Let the transfer reach the halfway point, then fail the primary.
	if err := sc.RunUntil(func() bool { return received > total/2 }, time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  %d/%d bytes echoed — crashing the primary now\n",
		sc.Now().Seconds()*1e3, received, total)
	sc.Group.Crash(0)

	if err := sc.RunUntil(func() bool { return received == total }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  final byte received; stream recovered through the secondary\n",
		sc.Now().Seconds()*1e3)
	if err := sc.RunUntil(func() bool { return closed }, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("t=%8.3fms  connection closed cleanly (the client now lingers in TIME-WAIT)\n", sc.Now().Seconds()*1e3)
	fmt.Printf("sent %d, received %d, corruption at %d (-1 = none)\n", sent, received, badAt)
	fmt.Printf("secondary bridge: %+v\n", sc.Group.SecondaryBridge().Stats())
	if received != total || badAt >= 0 {
		return fmt.Errorf("stream damaged across failover")
	}
	fmt.Println("the TCP connection survived the primary's failure transparently")
	return nil
}
