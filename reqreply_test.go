package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
)

// TestReqReplySequentialRequests drives several requests over one
// connection against the replicated request/reply server, with a failover
// between two of them.
func TestReqReplySequentialRequests(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{9000}
	sc := newScenario(t, opts, func(h *netstack.Host) error {
		_, err := apps.NewReqReplyServer(h.TCP(), 9000)
		return err
	})

	cl, err := apps.NewReqReplyClient(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{100, 40_000, 5_000, 250_000, 64}
	var elapsed []time.Duration
	var issue func(i int)
	issue = func(i int) {
		if i >= len(sizes) {
			return
		}
		if i == 2 {
			sc.Group.Crash(0) // between replies 2 and 3
		}
		cl.Request(sizes[i], func(e time.Duration) {
			elapsed = append(elapsed, e)
			issue(i + 1)
		})
	}
	issue(0)

	runUntil(t, sc, func() bool { return len(elapsed) == len(sizes) }, 30*time.Minute)
	for i, e := range elapsed {
		if e <= 0 {
			t.Errorf("request %d reported non-positive elapsed %v", i, e)
		}
	}
	// The large reply necessarily takes longer than the tiny ones.
	if elapsed[3] < elapsed[4] {
		t.Errorf("250 KB reply (%v) faster than 64 B reply (%v)", elapsed[3], elapsed[4])
	}
}
