package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// TestEstimatorThreeRegimes: a synthetic series in which the box moves
// between three speed regimes lasting tens of slices. Across runs that see
// different regime schedules the raw median swings by more than 30 %, the
// reference-normalised median stays within 5 %.
func TestEstimatorThreeRegimes(t *testing.T) {
	const trueNS = 2000.0 // per segment on the quiet box
	regimes := []float64{1.0, 1.3, 2.2}
	run := func(seed int64) (norm, raw float64) {
		rng := rand.New(rand.NewSource(seed))
		m := &measurement{}
		f, left := regimes[rng.Intn(3)], 0
		ref := func(f float64) refSample {
			return refSample{fillNS: refFillQuietNS * f * (1 + 0.03*rng.NormFloat64()), chaseNS: refChaseQuietNS * f * (1 + 0.03*rng.NormFloat64())}
		}
		before := ref(f)
		for i := 0; i < 270; i++ {
			if left == 0 {
				// Each run favours one regime, as a contended box does.
				f, left = regimes[(int(seed)+rng.Intn(2))%3], 20+rng.Intn(60)
			}
			left--
			wall := trueNS * 1000 * f * (1 + 0.02*rng.NormFloat64())
			after := ref(f)
			m.slices = append(m.slices, sliceRec{wallNS: wall, segments: 1000, refBefore: before, refAfter: after})
			before = after
		}
		return m.hostNormNSPerSegment(&connScale{})
	}
	var norms, raws []float64
	for seed := int64(0); seed < 12; seed++ {
		n, r := run(seed)
		norms, raws = append(norms, n), append(raws, r)
	}
	swing := func(v []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return (hi - lo) / median(v)
	}
	if s := swing(raws); s < 0.30 {
		t.Errorf("raw median swings only %.1f %%: the synthetic box is not contended enough to test anything", 100*s)
	}
	if s := swing(norms); s > 0.05 {
		t.Errorf("normalised median swings %.1f %%, want within 5 %%", 100*s)
	}
	if m := median(norms); math.Abs(m-trueNS)/trueNS > 0.02 {
		t.Errorf("normalised median %.1f, want the quiet-box cost %.1f", m, trueNS)
	}
}

func TestReferenceKernelFrozen(t *testing.T) {
	if err := refSelfTest(); err != nil {
		t.Fatal(err)
	}
	k := newRefKernel()
	a, b := k.run(), k.run()
	if a == b {
		t.Error("consecutive runs returned the same checksum: the chase is not advancing through the table")
	}
}

func TestPercentileSampleRule(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, beyond := percentileInt64(s, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentileInt64(s, 50); v != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", v)
	}
	if _, beyond := percentileInt64(s[:999], 99); beyond >= minTail {
		t.Errorf("999 samples leave %d beyond p99, want fewer than %d", beyond, minTail)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the driver's spread measure.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9.5, 10.1, 10.0, 9.9, 10.4, 10.2, 9.7, 10.3, 9.8, 11.0}
	q1, q3 := quartiles(v) // python: [9.775, 10.05, 10.325]
	if math.Abs(q1-9.775) > 1e-9 || math.Abs(q3-10.325) > 1e-9 {
		t.Errorf("quartiles = %v %v, want 9.775 10.325", q1, q3)
	}
	if m := median(v); math.Abs(m-10.05) > 1e-9 {
		t.Errorf("median = %v, want 10.05", m)
	}
}

func TestHalfGap(t *testing.T) {
	// A regime change at mid-run: halves at 1 and 2 around a median of 1.5.
	if g := halfGap([]float64{1, 1, 1, 1, 2, 2, 2, 2}); math.Abs(g-1/1.5) > 1e-9 {
		t.Errorf("halfGap = %v, want %v", g, 1/1.5)
	}
	// The same values interleaved differ for a reason other than time.
	if g := halfGap([]float64{1, 2, 1, 2, 1, 2, 1, 2}); g != 0 {
		t.Errorf("halfGap of an interleaved series = %v, want 0", g)
	}
	if g := halfGap([]float64{3}); g != 0 {
		t.Errorf("halfGap of one value = %v, want 0", g)
	}
}

func TestParseCovText(t *testing.T) {
	f, err := os.Open("testdata/cov.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseCovText(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tcp": 2*1000 + 3*250, "core": 4000, "apps": 10 + 2*320000, "facade": 77, "bench": 60}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %v statements, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("packages %v, want %v", got, want)
	}
}

func TestParsePprofTop(t *testing.T) {
	f, err := os.Open("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parsePprofTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"apps": 4.2, "runtime": 1.5, "tcp": 0.9, "checksum": 0.6, "flowtab": 0.5, "bench": 0.4, "facade": 0.3, "other": 0.11}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s: %v s, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
}

// TestSelfcheckVerdict: virtual metrics must repeat exactly; a host metric
// beyond its bound is a finding unless a run's own spread exceeds the bound.
func TestSelfcheckVerdict(t *testing.T) {
	for _, c := range []struct {
		metric      string
		x, y, inRun float64
		want        string
		ok          bool
	}{
		{mP99, 1203.5, 1203.5, 0, "unchanged", true},
		{mP99, 1203.5, 1203.6, 0, "NOT DETERMINISTIC", false},
		{mHostNorm, 1000, 1150, 0.30, "unchanged", true},
		{mHostNorm, 1000, 1250, 0.05, "DIFFERS", false},
		{mHostNorm, 1000, 750, 0.05, "DIFFERS", false},
		{mHostNorm, 1000, 1250, 0.30, "unresolved", true},
		{mHeap, 10, 12, 0, "DIFFERS", false},
	} {
		if _, got, ok := verdict(c.metric, c.x, c.y, c.inRun); got != c.want || ok != c.ok {
			t.Errorf("verdict(%s, %v, %v, in-run %v) = %q %v, want %q %v", c.metric, c.x, c.y, c.inRun, got, ok, c.want, c.ok)
		}
	}
}

// TestQuickSmoke runs every workload's untraced path at the quick tier with
// no wall-clock budget: the fixed window alone.
func TestQuickSmoke(t *testing.T) {
	for _, name := range workloadNames {
		run, err := measureEndToEnd(name, quickTier, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.res.Correct {
			t.Errorf("%s: checks failed: %v", name, run.res.checks)
		}
		for _, m := range []string{mSetup, mHostNorm, mHeap, mGoodput, mP50, mP99} {
			if v := run.res.Metrics[m].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m, v)
			}
		}
		again, err := measureEndToEnd(name, quickTier, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := run.virt, again.virt; a.events != b.events || a.segments != b.segments || a.p50ms != b.p50ms || a.p99ms != b.p99ms || a.goodputKBps != b.goodputKBps {
			t.Errorf("%s: virtual results differ between two runs of one seed:\n%+v\n%+v", name, a, b)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code's tables equal.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(bounds) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(bounds))
	}
	for _, m := range spec.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in code", m.Name, m.Bound, b)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, lm)
		}
	}
}
