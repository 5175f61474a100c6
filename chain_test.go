package tcpfailover_test

import (
	"fmt"
	"testing"
	"time"

	"tcpfailover"
)

// Three-way daisy-chained replication (the paper's section 1 extension):
// head <- middle <- tail. The same exactly-once byte-stream property must
// hold through any single failure — and through failure cascades, since a
// shortened chain is just the paper's two-way system.

func TestChainFaultFree(t *testing.T) {
	sc := newScenario(t, chainOptions(), echoServer)
	ec := startEchoClient(t, sc, 128*1024)
	runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)

	// All three stages did their part: the tail diverted to the middle,
	// the middle merged and diverted to the head, the head merged for the
	// client.
	if n := sc.Group.Backup(2).Stats().DivertedOut; n == 0 {
		t.Error("tail diverted nothing")
	}
	if n := sc.Group.Backup(1).Stats().DivertedOut; n == 0 {
		t.Error("middle diverted nothing")
	}
	// Matched-byte counters undercount slightly (retransmitted overlaps are
	// forwarded via the fast path), so require the bulk, not the total.
	if n := sc.Group.Backup(1).Matcher().Stats().BytesMatched; n < 64*1024 {
		t.Errorf("middle matched only %d bytes", n)
	}
	if n := sc.Group.PrimaryBridge().Stats().BytesMatched; n < 64*1024 {
		t.Errorf("head matched only %d bytes", n)
	}
}

func TestChainCascadingFailures(t *testing.T) {
	// Every ordered pair of distinct crash positions: the chain shortens
	// to two-way after the first failure and must survive the second.
	for first := range 3 {
		for second := range 3 {
			if first == second {
				continue
			}
			t.Run(fmt.Sprintf("crash_%d_then_%d", first, second), func(t *testing.T) {
				sc := newScenario(t, chainOptions(), echoServer)
				ec := startEchoClient(t, sc, 256*1024)
				runUntil(t, sc, func() bool { return ec.received > 32*1024 }, time.Minute)
				sc.Group.Crash(first)
				runUntil(t, sc, func() bool { return ec.received > 128*1024 }, 30*time.Minute)
				sc.Group.Crash(second)
			})
		}
	}
}

func TestChainFailoverCallbacks(t *testing.T) {
	sc := newScenario(t, chainOptions(), echoServer)
	var failed []int
	sc.Group.OnFailover = func(pos int) { failed = append(failed, pos) }
	ec := startEchoClient(t, sc, 64*1024)
	runUntil(t, sc, func() bool { return ec.received > 16*1024 }, time.Minute)
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return len(failed) > 0 }, time.Minute)
	if failed[0] != 0 {
		t.Errorf("failover position = %d, want 0", failed[0])
	}
	if sc.Group.Backup(1).Active() {
		t.Error("middle bridge still diverting after promotion")
	}
	if !sc.Secondary.Owns(tcpfailover.PrimaryAddr) {
		t.Error("promoted middle does not own the service address")
	}
}

// TestChainHonoursGroupConfig: what the options promise a pair they promise
// a chain — the flow cap on every matcher, the bridge series of every host,
// the fleet marks and a stall the span model can attribute.
func TestChainHonoursGroupConfig(t *testing.T) {
	opts := chainOptions()
	opts.Spans = true
	opts.MaxFlows = 1
	sc := newScenario(t, opts, echoServer)
	// Two short connections come and go, so the cap has something to evict;
	// the third is mid-stream when the head dies.
	for range 2 {
		ec := startEchoClient(t, sc, 4096)
		runUntil(t, sc, func() bool { return ec.closed }, sc.Now()+5*time.Minute)
	}
	ec := startEchoClient(t, sc, 192*1024)
	runUntil(t, sc, func() bool { return ec.received > 48*1024 }, sc.Now()+time.Minute)
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return ec.closed }, sc.Now()+30*time.Minute)
	if err := sc.Group.TakeoverErr(); err != nil {
		t.Errorf("takeover: %v", err)
	}

	if n := sc.Group.Backup(1).Matcher().Conns(); n > 1 {
		t.Errorf("the middle's matcher tracks %d connections under MaxFlows = 1", n)
	}
	for _, series := range []string{
		`bridge_bytes_matched_total{host="primary"}`,
		`bridge_bytes_matched_total{host="secondary"}`,
		`bridge_snooped_in_total{host="secondary"}`,
		`bridge_diverted_out_total{host="secondary"}`,
		`bridge_snooped_in_total{host="tertiary"}`,
		`bridge_diverted_out_total{host="tertiary"}`,
	} {
		if v, ok := sc.Obs.Lookup(series); !ok || v == 0 {
			t.Errorf("%s = (%d, %v), want a non-zero series", series, v, ok)
		}
	}
	if _, ok := sc.Spans.FailureMark(); !ok {
		t.Error("no failure mark")
	}
	if _, ok := sc.Spans.DetectMark(); !ok {
		t.Error("no detect mark")
	}
	if _, ok := sc.Spans.TakeoverMark(); !ok {
		t.Error("no takeover mark")
	}
	sp, ok := sc.Spans.Lookup(ec.conn.Tuple().SpanKey())
	if !ok {
		t.Fatal("no span for the connection that crossed the takeover")
	}
	if st, ok := sc.Spans.Stall(&sp); !ok || st.Total < 50*time.Millisecond {
		t.Errorf("Stall = (%+v, %v), want a completed stall past the detection timeout", st, ok)
	}
}
