package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestFailoverTimelineDeterministic is the E9 gate: at a fixed seed set the
// reconstructed timelines — and therefore the marshalled result and the
// rendered phase breakdown — must be byte-identical across runs and worker
// counts.
func TestFailoverTimelineDeterministic(t *testing.T) {
	run := func(workers int) (TimelineResult, string) {
		old := Workers
		Workers = workers
		defer func() { Workers = old }()
		r, err := FailoverTimeline(3)
		if err != nil {
			t.Fatalf("FailoverTimeline(workers=%d): %v", workers, err)
		}
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return r, string(blob)
	}
	r1, blob1 := run(1)
	_, blob2 := run(4)
	if blob1 != blob2 {
		t.Fatalf("timeline results differ across worker counts:\n%s\n%s", blob1, blob2)
	}
	_, blob3 := run(4)
	if blob2 != blob3 {
		t.Fatalf("timeline results differ across identical runs:\n%s\n%s", blob2, blob3)
	}

	var sb1, sb2 strings.Builder
	renderTimeline(&sb1, &Results{Timeline: &r1})
	renderTimeline(&sb2, &Results{Timeline: &r1})
	if sb1.Len() == 0 || sb1.String() != sb2.String() {
		t.Fatalf("rendering not deterministic:\n%s\n%s", sb1.String(), sb2.String())
	}
}

// TestFailoverTimelineShape checks the breakdown against the known
// structure of a LAN failover: the crash lands on a delivery, so nothing
// precedes it; detection is bounded by the detector timeout plus one check
// period; the ARP announce is synchronous with the takeover procedure; and
// the phases tile the total.
func TestFailoverTimelineShape(t *testing.T) {
	r, err := FailoverTimeline(3)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sample
	if s.PreCrash != 0 || s.Detection+s.Announce+s.Resume+s.Recovery != s.Total {
		t.Fatalf("phases do not tile the stall: %+v", s)
	}
	// LANOptions detector: 10 ms period, 50 ms timeout -> detection lands
	// in (timeout, timeout+period] less the in-flight residue the client
	// still received after the crash.
	if d := r.DetectionMedian; d < 40*time.Millisecond || d > 70*time.Millisecond {
		t.Errorf("detection median %v outside the detector's timeout window", d)
	}
	if r.AnnounceMedian > time.Millisecond {
		t.Errorf("announce median %v: the gratuitous ARP should go out with the takeover", r.AnnounceMedian)
	}
	if r.ResumeMedian < 100*time.Millisecond {
		t.Errorf("resume median %v: the client's RTO recovery should dominate the stall", r.ResumeMedian)
	}
}

// TestSpanStallIsTheClientVisibleGap crashes E9's stream at its nine byte
// offsets and holds the span model to the receiver's own byte timeline:
// a frame already past the primary when it died is delivery, not recovery,
// so every stall covers at least the detection timeout and agrees with the
// longest post-crash gap the application saw.
func TestSpanStallIsTheClientVisibleGap(t *testing.T) {
	const total, n = 512 * 1024, 9
	for i := range n {
		r, st, err := spanCrashRun(int64(9000+i), total, int64(total/4)+int64(i)*int64(total/(2*n)))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if st.Total < 50*time.Millisecond {
			t.Errorf("run %d: stall %v shorter than the 50 ms detection timeout", i, st.Total)
		}
		if d := (st.Total - r.maxGap).Abs(); d > time.Millisecond {
			t.Errorf("run %d: span stall %v, receiver's longest post-crash gap %v", i, st.Total, r.maxGap)
		}
	}
}

// TestCollectMetricsSnapshot checks the -metrics-out workload: the failover
// scenario must produce a registry whose core counters saw traffic.
func TestCollectMetricsSnapshot(t *testing.T) {
	reg, err := CollectMetrics()
	if err != nil {
		t.Fatal(err)
	}
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
