package bench

import (
	"runtime"
	"testing"
	"time"

	"tcpfailover"
)

// TestConnScaleHeapShedsSetUpBurst: conn-scale's shape at 2 000
// connections through the pair, dialled 5 us apart, each a closed loop of
// 4-byte requests and 256-byte replies with think time. The dial burst
// peaks at about 8 100 pending events against 2 000 once the rounds settle,
// and the scheduler's, the hosts' and the LANs' free lists fill to that
// peak. Eight virtual seconds take every list past three shed periods (the
// scheduler's sheds every 0.26 s here, the hosts' about every 1.3 s), after
// which a pool keeps what its last period used and the live heap per
// connection is the connection state alone: 1 785 B with 320-byte Conns
// and chunked flow slabs, 1 935 B with 352-byte Conns, 2 207 B with
// 448-byte ones, and 2 964 B when the lists kept the set-up peak for the run.
func TestConnScaleHeapShedsSetUpBurst(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	const conns = 2000
	defer unchecked()()
	base := liveHeapBytes()
	sc, err := tcpfailover.NewScenario(connScaleOptions(44))
	if err != nil {
		t.Fatal(err)
	}
	h := newCsHarness(sc.Sched)
	if err := installOnServers(sc, h.serve); err != nil {
		t.Fatal(err)
	}
	sc.Start()
	for i := range conns {
		sc.Sched.At(time.Duration(i)*csDialStagger, "heapgate.dial", func() { h.dial(sc.Client.TCP(), sc.ServiceAddr()) })
	}
	peak := 0
	for sc.Sched.Now() < 8*time.Second {
		if err := sc.Run(100 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, sc.Sched.PendingEvents())
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
	if h.rounds < conns*30 {
		t.Fatalf("%d rounds in 8 s, want at least %d: the connections are not cycling", h.rounds, conns*30)
	}
	perConn := float64(liveHeapBytes()-base) / conns
	runtime.KeepAlive(sc)
	runtime.KeepAlive(h)
	t.Logf("%d rounds; pending events peaked at %d, %d at the end; %.0f B of live heap per connection",
		h.rounds, peak, sc.Sched.PendingEvents(), perConn)
	if perConn > 1900 {
		t.Errorf("%.0f B of live heap per connection, want at most 1900: a free list is keeping the dial burst's objects, or a Conn grew", perConn)
	}
}

// liveHeapBytes is HeapAlloc after two forced collections (the second drops
// what sync.Pool kept through the first as its victim cache).
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
