// FTP: the paper's real-world application (section 9). A replicated FTP
// server behind the bridge serves a client across a wide-area network. Each
// transfer uses a *server-initiated* data connection from port 20 — the
// section 7.2 establishment path — and the session continues across a
// primary failure that strikes between transfers.
//
// Run with: go run ./examples/ftp
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
		fmt.Fprintln(os.Stderr, "ftp:", err)
		os.Exit(1)
	}
}

func run() error {
	opts := tcpfailover.WANOptions()
	opts.ServerPorts = []uint16{apps.FTPControlPort, apps.FTPDataPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		return err
	}
	files := apps.DefaultFTPFiles()
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
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
	// Model the user-space client's write-loop cost so put rates are
	// meaningful (see EXPERIMENTS.md).
	cl.PutPacing = apps.Pacing{Fixed: 100 * time.Microsecond, PerKB: 300 * time.Microsecond}

	report := func(op string) func(apps.FTPResult) {
		return func(r apps.FTPResult) {
			if r.Err != nil {
				fmt.Printf("t=%7.1fms  %s %-12s FAILED: %v\n",
					sc.Now().Seconds()*1e3, op, r.Name, r.Err)
				return
			}
			fmt.Printf("t=%7.1fms  %s %-12s %8d bytes  %8.2f KB/s  corrupt=%v\n",
				sc.Now().Seconds()*1e3, op, r.Name, r.Bytes, r.RateKBps, r.BadAt >= 0)
		}
	}

	cl.Login(func(r apps.FTPResult) {
		fmt.Printf("t=%7.1fms  logged in to the replicated server\n", sc.Now().Seconds()*1e3)
	})
	cl.Get("small.txt", report("GET"))
	cl.Get("medium.bin", func(r apps.FTPResult) {
		report("GET")(r)
		fmt.Printf("t=%7.1fms  *** primary crashes; session continues on the secondary ***\n",
			sc.Now().Seconds()*1e3)
		sc.Group.Crash(0)
	})
	cl.Put("report.dat", 50_000, report("PUT"))
	cl.Get("large.bin", report("GET"))
	done := false
	cl.Done = func() { done = true }
	cl.Quit()

	if err := sc.RunUntil(func() bool { return done }, time.Hour); err != nil {
		return err
	}
	fmt.Printf("t=%7.1fms  session closed; the control connection and every\n",
		sc.Now().Seconds()*1e3)
	fmt.Println("data connection survived (or were established after) the failover")
	return nil
}
