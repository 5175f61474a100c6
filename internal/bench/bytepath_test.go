package bench

import (
	"runtime"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
)

// The byte-path allocation gates (CI runs both on every push): between the
// applications payload bytes sit in tcp.ByteRing — the TCP send and receive
// buffers and the primary bridge's match queues — and in the steady state
// every ring cycles storage through netbuf's byte store instead of
// allocating, out-of-order arrival included.

func frames(sc *tcpfailover.Scenario) int64 {
	return sc.ServerLAN.Stats().Frames + sc.ClientLink.Stats().Frames
}

// TestStreamSteadyStateAllocs: the stream-recv shape, back-to-back 128 KiB
// replies over one failover connection. Every reply byte waits in the
// primary bridge's match queue; after one warm-up reply has grown the
// rings, neither the queues nor anything else on the path may allocate per
// segment. The lossy row is the paper's section 4 on the same path: 0.5 %
// Bernoulli loss on the client link puts every lost frame's successors in
// the client's receive ring beyond a gap, and neither holding them there,
// nor judging each frame, nor the retransmissions may allocate either.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	for _, row := range []struct {
		name       string
		loss       float64
		maxMallocs float64 // per frame
	}{
		{"clean", 0, 0.01},
		{"lossy", 0.005, 0.02},
	} {
		t.Run(row.name, func(t *testing.T) {
			mallocs, bytes := streamAllocsPerFrame(t, row.loss)
			if mallocs >= row.maxMallocs {
				t.Errorf("stream steady state allocates %.4f times per frame, want < %v", mallocs, row.maxMallocs)
			}
			if bytes >= 16 {
				t.Errorf("stream steady state allocates %.1f B per frame, want < 16", bytes)
			}
		})
	}
}

// streamAllocsPerFrame runs 64 replies after a warm-up one, with Bernoulli
// loss on the client link if loss > 0, and returns what they allocated per
// frame carried.
func streamAllocsPerFrame(t *testing.T, loss float64) (mallocs, bytes float64) {
	const reply, replies = 128 << 10, 64
	defer unchecked()()
	sc, err := testbed(Failover, 9100, func(o *tcpfailover.Options) {
		// Heartbeats allocate per period of virtual time, not per segment of
		// the stream; they would be the whole of what this gate reads.
		detectors := false
		o.StartDetectors = &detectors
		if loss > 0 {
			o.Faults = &fault.Plan{Impairments: []fault.Impairment{
				{Link: fault.LinkClientLink, Models: []fault.Spec{fault.Bernoulli(loss)}},
			}}
		}
	}, reqReplyServer)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start()
	cl, err := apps.NewReqReplyClient(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), benchPort)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	onDone := func(time.Duration) { done++ }
	request := func() {
		want := done + 1
		cl.Request(reply, onDone)
		if err := sc.RunUntil(func() bool { return done >= want }, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: rings and queues grow to their working size. The window
	// opens further during the next reply, which adds some twenty packet
	// buffers and events to the pools, once; the run is long enough for
	// that not to read as a per-segment cost.
	request()

	var ms0, ms1 runtime.MemStats
	f0 := frames(sc)
	runtime.ReadMemStats(&ms0)
	for range replies {
		request()
	}
	runtime.ReadMemStats(&ms1)
	segs := float64(frames(sc) - f0)
	if segs < replies*reply/1460 {
		t.Fatalf("only %.0f segments carried for %d replies", segs, replies)
	}
	mallocs = float64(ms1.Mallocs-ms0.Mallocs) / segs
	bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / segs
	t.Logf("%.0f frames: %.4f mallocs/frame, %.2f B/frame", segs, mallocs, bytes)
	return mallocs, bytes
}

// TestSequentialConnsReuseRings: the stream-send shape, one connection per
// 128 KiB upload, dial to full close. Each connection grows a 64 KiB send
// ring on the client and receive rings on the replicas; closing gives them
// back to the store, so after warm-up the next connection takes those
// instead of allocating its own.
func TestSequentialConnsReuseRings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	const upload, warm, conns = 128 << 10, 8, 200
	sc, err := testbed(Failover, 9200, nil, sinkServer)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start()
	one := func() {
		tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), benchPort, upload)
		if err != nil {
			t.Fatal(err)
		}
		// Full close as the client sees it: its FIN acknowledged and the
		// servers' FIN received, where OnClose fires as TIME-WAIT begins.
		// Entering TIME-WAIT returns the client's rings; the replicas' go
		// back when LAST-ACK completes.
		if err := sc.RunUntil(func() bool {
			return tr.Err != nil || tr.Closed > 0
		}, time.Hour); err != nil {
			t.Fatal(err)
		}
		if tr.Err != nil || !tr.Done {
			t.Fatalf("upload failed: done=%v err=%v", tr.Done, tr.Err)
		}
	}
	for range warm {
		one()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range conns {
		one()
	}
	runtime.ReadMemStats(&ms1)
	perConn := float64(ms1.TotalAlloc-ms0.TotalAlloc) / conns
	t.Logf("%.0f B allocated per connection", perConn)
	if perConn >= 4096 {
		t.Errorf("sequential connections allocate %.0f B each, want < 4096: a closed connection's rings are not reaching the next one", perConn)
	}
}
