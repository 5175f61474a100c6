package bench

import (
	"testing"
	"time"
)

// TestStallScaleSmoke reads the small point and checks the experiment's
// basic shape: spans were recorded, a nonempty subset of them completed a
// measurable failover stall, and the per-phase breakdown is sane.
func TestStallScaleSmoke(t *testing.T) {
	s := small(t, "stallscale")
	p := s.StallScale[0]
	if p.Cells != 2 {
		t.Errorf("got %d cells, want 2", p.Cells)
	}
	if p.Spans == 0 {
		t.Fatal("no spans recorded")
	}
	if p.Stalled == 0 {
		t.Fatal("no connection completed a measurable stall — the crash is invisible")
	}
	if p.Stalled > p.Spans {
		t.Errorf("stalled %d > spans %d", p.Stalled, p.Spans)
	}
	for _, s := range []struct {
		name string
		st   StallPhaseStats
	}{
		{"total", p.Total}, {"precrash", p.PreCrash}, {"detection", p.Detection},
		{"announce", p.Announce}, {"resume", p.Resume}, {"recovery", p.Recovery},
	} {
		// Order statistics of one sample set are monotone up to its max.
		if s.st.P50 < 0 || s.st.P99 < s.st.P50 || s.st.P999 < s.st.P99 || s.st.Max < s.st.P999 {
			t.Errorf("%s: non-monotone percentiles %+v", s.name, s.st)
		}
	}
	// The stall is dominated by detection + recovery; a crash mid-window
	// must make the fleet-wide worst total comparable to the detector's
	// declaration time (heartbeats are lost for tens of milliseconds).
	if p.Total.Max < time.Millisecond {
		t.Errorf("worst-case total stall %v implausibly small for a primary crash", p.Total.Max)
	}
	if p.SpanDigest == "" || p.SpanDigest == "0000000000000000" {
		t.Errorf("empty span digest %q", p.SpanDigest)
	}
}
