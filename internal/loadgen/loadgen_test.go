package loadgen

import (
	"math"
	"strings"
	"testing"
	"time"

	"tcpfailover/internal/fault"
)

// --- Arrival-process properties ------------------------------------------------

// drawArrivals collects every arrival of a process in [0, horizon).
func drawArrivals(p Poisson, horizon time.Duration, seed uint64) []time.Duration {
	r := fault.NewRand(seed)
	var out []time.Duration
	t := time.Duration(0)
	for {
		t = p.Next(t, r)
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// TestPoissonMeanAndDispersion checks the two defining properties of a
// Poisson process on disjoint unit bins: the count mean matches the rate and
// the variance/mean ratio (index of dispersion) is 1.
func TestPoissonMeanAndDispersion(t *testing.T) {
	const rate = 50.0
	const bins = 400
	horizon := time.Duration(bins) * time.Second
	arr := drawArrivals(Poisson{Rate: rate}, horizon, 42)

	counts := make([]float64, bins)
	for _, a := range arr {
		counts[int(a/time.Second)]++
	}
	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += c * c
	}
	mean := sum / bins
	variance := sumSq/bins - mean*mean

	if math.Abs(mean-rate)/rate > 0.03 {
		t.Errorf("per-second count mean = %.2f, want ~%g", mean, rate)
	}
	if d := variance / mean; d < 0.85 || d > 1.15 {
		t.Errorf("index of dispersion = %.3f, want ~1 (Poisson)", d)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] <= arr[i-1] {
			t.Fatalf("arrivals not strictly increasing at %d: %v then %v", i, arr[i-1], arr[i])
		}
	}
}

// --- Sampler properties --------------------------------------------------------

// TestLognormalMedian checks the parameterization: the sample median must sit
// at the configured median.
func TestLognormalMedian(t *testing.T) {
	l := Lognormal{Median: 4096, Sigma: 1.0}
	r := fault.NewRand(11)
	const n = 200000
	below := 0
	for range n {
		if l.Sample(r) < l.Median {
			below++
		}
	}
	if f := float64(below) / n; f < 0.48 || f > 0.52 {
		t.Errorf("fraction below median = %.3f, want ~0.5", f)
	}
}

// TestParetoTailIndexRecovery fits the Hill estimator to Pareto samples and
// checks it recovers the configured tail index — the property that makes the
// zoo's tails genuinely heavy rather than merely skewed.
func TestParetoTailIndexRecovery(t *testing.T) {
	p := Pareto{Scale: 1000, Alpha: 1.3}
	r := fault.NewRand(5)
	const n = 100000
	// For an exact Pareto the Hill estimator over all samples is the MLE:
	// alpha-hat = n / sum(log(x_i/scale)).
	var logSum float64
	minSeen := int64(math.MaxInt64)
	for range n {
		v := p.Sample(r)
		if v < minSeen {
			minSeen = v
		}
		logSum += math.Log(float64(v) / float64(p.Scale))
	}
	alphaHat := n / logSum
	if math.Abs(alphaHat-p.Alpha)/p.Alpha > 0.03 {
		t.Errorf("Hill/MLE tail index = %.3f, want ~%g", alphaHat, p.Alpha)
	}
	if minSeen < p.Scale {
		t.Errorf("sample %d below scale %d", minSeen, p.Scale)
	}
}

// TestMixTailFraction checks the two-piece model draws from the tail at the
// configured probability.
func TestMixTailFraction(t *testing.T) {
	m := Mix{Body: Fixed(1), Tail: Fixed(1 << 30), TailProb: 0.05}
	r := fault.NewRand(9)
	const n = 100000
	tails := 0
	for range n {
		if m.Sample(r) > 1 {
			tails++
		}
	}
	if f := float64(tails) / n; f < 0.043 || f > 0.057 {
		t.Errorf("tail fraction = %.4f, want ~0.05", f)
	}
}

// TestGeometricMean checks the requests-per-session sampler: support starts
// at 1 and the sample mean matches.
func TestGeometricMean(t *testing.T) {
	g := Geometric{Mean: 3}
	r := fault.NewRand(13)
	const n = 200000
	var sum int64
	for range n {
		v := g.Sample(r)
		if v < 1 {
			t.Fatalf("geometric sample %d < 1", v)
		}
		sum += v
	}
	if mean := float64(sum) / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("sample mean = %.3f, want ~3", mean)
	}
}

// TestClampBounds checks clamping.
func TestClampBounds(t *testing.T) {
	c := Clamp{S: Pareto{Scale: 10, Alpha: 0.5}, Min: 64, Max: 1024}
	r := fault.NewRand(17)
	for range 10000 {
		if v := c.Sample(r); v < c.Min || v > c.Max {
			t.Fatalf("clamped sample %d outside [%d, %d]", v, c.Min, c.Max)
		}
	}
}

// --- Determinism ---------------------------------------------------------------

// TestArrivalsByteIdentical pins the draw sequences: the same seed must
// reproduce the same arrival schedule and the same sampled sizes, draw for
// draw — the property the sharded and multi-worker determinism gates build on.
func TestArrivalsByteIdentical(t *testing.T) {
	spec, err := Zoo("web", 80)
	if err != nil {
		t.Fatal(err)
	}
	a := drawArrivals(spec.Arrivals, 20*time.Second, 99)
	b := drawArrivals(spec.Arrivals, 20*time.Second, 99)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d arrivals from the same seed", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no arrivals in 20s at 80/s")
	}

	r1, r2 := fault.NewRand(123), fault.NewRand(123)
	for i := range 10000 {
		if v1, v2 := spec.Session.Sizes.Sample(r1), spec.Session.Sizes.Sample(r2); v1 != v2 {
			t.Fatalf("size draw %d differs: %d vs %d", i, v1, v2)
		}
	}
}

// TestZooUnknown checks the error path lists the valid names.
func TestZooUnknown(t *testing.T) {
	if _, err := Zoo("web", 10); err != nil {
		t.Fatalf("web: %v", err)
	}
	_, err := Zoo("nope", 10)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "web") {
		t.Errorf("error %q does not list web", err)
	}
	if _, err := Zoo("web", 0); err == nil {
		t.Fatal("zero offered load accepted")
	}
}
