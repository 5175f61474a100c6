package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-attaching the same series resolves to the same slot.
	c2 := reg.Counter("requests_total")
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter after re-attach = %d, want 6", got)
	}

	g := reg.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 5122 {
		t.Fatalf("sum = %d, want 5122", got)
	}
	snap := reg.Snapshot()
	var found bool
	for _, s := range snap {
		if s.Name != "lat" {
			continue
		}
		found = true
		// Per-bucket (non-cumulative) counts: ≤10: 2, ≤100: 2, ≤1000: 0, +Inf: 1.
		want := []int64{2, 2, 0, 1}
		if len(s.Counts) != len(want) {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
		}
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
			}
		}
	}
	if !found {
		t.Fatal("histogram missing from snapshot")
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", []int64{1})
	c.Inc()
	g.Set(3)
	h.Observe(2)
	if c.Value() != 1 || g.Value() != 3 || h.Count() != 1 {
		t.Fatal("discard slots should still accumulate locally")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("dual")
}

func TestDumpTextPrometheusShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`hits_total{host="a"}`).Add(3)
	reg.Counter(`hits_total{host="b"}`).Add(4)
	reg.Histogram("lat", []int64{10, 100}).Observe(42)
	var sb strings.Builder
	if err := reg.DumpText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`hits_total{host="a"} 3`,
		`hits_total{host="b"} 4`,
		`lat_bucket{le="10"} 0`,
		`lat_bucket{le="100"} 1`, // cumulative
		`lat_bucket{le="+Inf"} 1`,
		`lat_sum 42`,
		`lat_count 1`,
		`# TYPE hits_total counter`,
		`# TYPE lat histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("DumpText missing %q\n%s", want, text)
		}
	}
}

func TestSnapshotRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total")
	reg.Counter("a_total")
	reg.Gauge("c")
	snap := reg.Snapshot()
	want := []string{"b_total", "a_total", "c"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot length %d, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i].Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (registration order)", i, snap[i].Name, want[i])
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_hist", []int64{
		int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond), int64(time.Millisecond)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
