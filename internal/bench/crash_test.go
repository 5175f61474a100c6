package bench

import (
	"strings"
	"testing"
	"time"
)

// TestSpanStallIsTheClientVisibleGap runs E7's nine clean crash instants
// and holds the span model to a reference watcher of the receiver's own
// byte timeline, read after every event: the longest gap between two
// growths that began with the primary down. A frame already past the
// primary when it died is delivery, not recovery, so every stall covers at
// least the detection timeout and equals that gap to the nanosecond.
func TestSpanStallIsTheClientVisibleGap(t *testing.T) {
	for i := range recordRuns {
		r, err := newFaultRun(faultCell{model: "none"}, i, recordRuns)
		if err != nil {
			t.Fatal(err)
		}
		var received int64
		var last, gap time.Duration
		sinceCrash := false
		for !r.recv.EOF {
			if !r.sc.Sched.Step() || r.sc.Now() > time.Hour {
				t.Fatalf("run %d: no EOF by %v (received=%d)", i, r.sc.Now(), r.recv.Received)
			}
			if r.recv.Received != received {
				if sinceCrash {
					gap = max(gap, r.sc.Now()-last)
				}
				received, last, sinceCrash = r.recv.Received, r.sc.Now(), !r.sc.Primary.Alive()
			}
		}
		st, ok := r.stall()
		switch {
		case !r.intact() || !ok:
			t.Errorf("run %d: intact %v, span scored %v", i, r.intact(), ok)
		case st.PreCrash+st.Detection+st.Announce+st.Resume+st.Recovery != st.Total:
			t.Errorf("run %d: phases do not tile the stall: %+v", i, st)
		case st.Total < 50*time.Millisecond:
			t.Errorf("run %d: stall %v shorter than the 50 ms detection timeout", i, st.Total)
		case st.Total != gap:
			t.Errorf("run %d: span stall %v, receiver's longest post-crash gap %v", i, st.Total, gap)
		}
	}
}

// TestCollectMetricsSnapshot checks the -metrics-out workload: the failover
// scenario must produce a registry whose core counters saw traffic.
func TestCollectMetricsSnapshot(t *testing.T) {
	reg := small(t, "CollectMetrics").Metrics
	for _, name := range []string{
		`tcp_segments_in_total{host="client"}`,
		`tcp_segments_out_total{host="client"}`,
		`bridge_snooped_in_total{host="secondary"}`,
		`bridge_diverted_out_total{host="secondary"}`,
		`bridge_bytes_matched_total{host="primary"}`,
	} {
		v, ok := reg.Lookup(name)
		if !ok {
			t.Errorf("series %s missing from registry", name)
			continue
		}
		if v <= 0 {
			t.Errorf("series %s = %d, want > 0", name, v)
		}
	}
	var sb strings.Builder
	if err := reg.DumpText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE tcp_segments_in_total counter") {
		t.Error("DumpText missing TYPE line for tcp_segments_in_total")
	}
}
