package bench

import (
	"sort"
	"testing"
	"time"
)

// TestStallScaleSmoke reads the small point and checks the experiment's
// basic shape: spans were recorded, a nonempty subset of them completed a
// measurable failover stall, and the per-phase breakdown is sane.
func TestStallScaleSmoke(t *testing.T) {
	s := small(t, "stallscale")
	p, exact := s.StallScale[0], s.Stalls
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
	if int64(len(exact)) != p.Stalled {
		t.Errorf("exact stall list has %d entries, point reports %d stalled", len(exact), p.Stalled)
	}
	for _, s := range []struct {
		name string
		st   StallPhaseStats
	}{
		{"total", p.Total}, {"precrash", p.PreCrash}, {"detection", p.Detection},
		{"announce", p.Announce}, {"resume", p.Resume}, {"recovery", p.Recovery},
	} {
		// P50..P999 report bucket upper bounds and are monotone; Max is the
		// exact maximum, which a bucket bound may overshoot by up to 1/32.
		if s.st.P50 < 0 || s.st.P99 < s.st.P50 || s.st.P999 < s.st.P99 {
			t.Errorf("%s: non-monotone percentiles %+v", s.name, s.st)
		}
		if s.st.Max+s.st.Max/32+1 < s.st.P999 {
			t.Errorf("%s: exact max %v more than one sub-bucket under p999 %v", s.name, s.st.Max, s.st.P999)
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

// TestStallScalePercentilesMatchExact is the satellite cross-check: the
// point's log-histogram total percentiles must bracket the exact order
// statistics computed from every scored connection's stall. The histogram
// reports its bucket's inclusive upper bound, so each estimate is >= the
// exact nearest-rank value and overshoots by at most 1/32 (one sub-bucket).
func TestStallScalePercentilesMatchExact(t *testing.T) {
	s := small(t, "stallscale")
	p, exact := s.StallScale[0], s.Stalls
	sorted := append([]time.Duration(nil), exact...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n == 0 {
		t.Fatal("no exact stalls to cross-check")
	}
	nearestRank := func(pct float64) time.Duration {
		rank := int(float64(n-1)*pct/100.0) + 1
		return sorted[rank-1]
	}
	for _, c := range []struct {
		name  string
		pct   float64
		got   time.Duration
		exact bool
	}{
		{"p50", 50, p.Total.P50, false},
		{"p99", 99, p.Total.P99, false},
		{"p999", 99.9, p.Total.P999, false},
		{"max", 100, p.Total.Max, true},
	} {
		want := nearestRank(c.pct)
		if c.exact {
			if c.got != want {
				t.Errorf("total %s: histogram %v != exact %v (max is exact by construction)", c.name, c.got, want)
			}
			continue
		}
		if c.got < want {
			t.Errorf("total %s: histogram %v undershoots exact %v", c.name, c.got, want)
		}
		if limit := want + want/32 + 1; c.got > limit {
			t.Errorf("total %s: histogram %v overshoots exact %v beyond one sub-bucket (%v)",
				c.name, c.got, want, limit)
		}
	}
}
