package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"
	"time"
)

// stallSmallConns is an E14 point small enough for unit tests: two cells,
// ~150 sessions per cell over a 2s window, every phase of the stall
// attribution still exercised by the mid-window crash.
const stallSmallConns = 300

func stallSmall(t *testing.T) (StallScalePoint, []time.Duration) {
	t.Helper()
	p, exact, err := runStallScale(0, stallSmallConns, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return p, exact
}

// TestStallScaleSmoke runs the small point once and checks the experiment's
// basic shape: spans were recorded, a nonempty subset of them completed a
// measurable failover stall, and the per-phase breakdown is sane.
func TestStallScaleSmoke(t *testing.T) {
	p, exact := stallSmall(t)
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
	p, exact := stallSmall(t)
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

// TestStallScaleIdenticalAcrossWorkerCounts is the E14 determinism gate
// (CI runs it under -race): the marshalled point — span digest included —
// and the exact per-connection stall list must be byte-identical whether
// the cells run on one bench worker or on four.
func TestStallScaleIdenticalAcrossWorkerCounts(t *testing.T) {
	workers := []int{1, 4}
	blobs := make([][]byte, len(workers))
	exacts := make([][]time.Duration, len(workers))
	for i, w := range workers {
		old := Workers
		Workers = w
		p, exact := stallSmall(t)
		Workers = old
		blob, err := json.MarshalIndent(p, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
		exacts[i] = exact
	}
	if !bytes.Equal(blobs[1], blobs[0]) {
		t.Errorf("workers=4 diverges from workers=1:\n--- base ---\n%s\n--- got ---\n%s", blobs[0], blobs[1])
	}
	if !slices.Equal(exacts[1], exacts[0]) {
		t.Errorf("workers=4: exact stalls differ from workers=1 (%d vs %d entries)", len(exacts[1]), len(exacts[0]))
	}
}
