package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func samplerFixture() (*Registry, Counter, Gauge, Histogram) {
	reg := NewRegistry()
	c := reg.Counter("segments_total")
	g := reg.Gauge("conns_active")
	h := reg.Histogram("rtt_ns", []int64{1000, 10000})
	return reg, c, g, h
}

func TestSamplerColumnsAndValues(t *testing.T) {
	reg, c, g, h := samplerFixture()
	s := NewSampler(reg, time.Millisecond, 8)
	c.Add(3)
	g.Set(2)
	h.Observe(500)
	h.Observe(20000)
	s.Sample(1 * time.Millisecond)
	c.Add(4)
	g.Set(1)
	s.Sample(2 * time.Millisecond)

	ts := s.Timeseries()
	if ts.PeriodNs != int64(time.Millisecond) {
		t.Errorf("period = %d, want 1ms", ts.PeriodNs)
	}
	wantNames := []string{"segments_total", "conns_active", "rtt_ns.count", "rtt_ns.sum"}
	if len(ts.Series) != len(wantNames) {
		t.Fatalf("got %d series, want %d", len(ts.Series), len(wantNames))
	}
	for i, n := range wantNames {
		if ts.Series[i].Name != n {
			t.Errorf("series %d = %q, want %q (registration order)", i, ts.Series[i].Name, n)
		}
	}
	wantVals := map[string][]int64{
		"segments_total": {3, 7},
		"conns_active":   {2, 1},
		"rtt_ns.count":   {2, 2},
		"rtt_ns.sum":     {20500, 20500},
	}
	for _, col := range ts.Series {
		w := wantVals[col.Name]
		if len(col.Values) != len(w) {
			t.Fatalf("%s: %d rows, want %d", col.Name, len(col.Values), len(w))
		}
		for i := range w {
			if col.Values[i] != w[i] {
				t.Errorf("%s[%d] = %d, want %d", col.Name, i, col.Values[i], w[i])
			}
		}
	}
}

func TestSamplerRingWrap(t *testing.T) {
	reg, c, _, _ := samplerFixture()
	s := NewSampler(reg, time.Millisecond, 3)
	for i := 1; i <= 5; i++ {
		c.Inc()
		s.Sample(time.Duration(i) * time.Millisecond)
	}
	if s.Samples() != 3 {
		t.Fatalf("retained %d samples, want 3", s.Samples())
	}
	ts := s.Timeseries()
	wantTimes := []int64{int64(3 * time.Millisecond), int64(4 * time.Millisecond), int64(5 * time.Millisecond)}
	for i, w := range wantTimes {
		if ts.TimesNs[i] != w {
			t.Errorf("times[%d] = %d, want %d (oldest retained first)", i, ts.TimesNs[i], w)
		}
	}
	if got := ts.Series[0].Values; got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("counter ring = %v, want [3 4 5]", got)
	}
}

func TestSamplerSteadyStateNoAlloc(t *testing.T) {
	reg, c, g, h := samplerFixture()
	s := NewSampler(reg, time.Millisecond, 4)
	for i := 0; i < 8; i++ { // fill past the wrap
		s.Sample(time.Duration(i) * time.Millisecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(7)
		h.Observe(123)
		s.Sample(9 * time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state Sample allocates %.1f times per call, want 0", allocs)
	}
}

func TestMergeTimeseries(t *testing.T) {
	mk := func(counter int64) *Timeseries {
		reg := NewRegistry()
		c := reg.Counter("segments_total")
		s := NewSampler(reg, time.Millisecond, 4)
		c.Add(counter)
		s.Sample(1 * time.Millisecond)
		c.Add(counter)
		s.Sample(2 * time.Millisecond)
		return s.Timeseries()
	}
	a, b := mk(10), mk(1)
	m, err := MergeTimeseries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Series[0].Values; got[0] != 11 || got[1] != 22 {
		t.Errorf("merged values = %v, want [11 22]", got)
	}
	// Mismatched grids must fail loudly, not misalign silently.
	bad := mk(1)
	bad.TimesNs[1]++
	if _, err := MergeTimeseries(a, bad); err == nil {
		t.Error("mismatched sample grid merged without error")
	}
	short := mk(1)
	short.TimesNs = short.TimesNs[:1]
	if _, err := MergeTimeseries(a, short); err == nil {
		t.Error("short timeseries merged without error")
	}
}

// TestTimeseriesGoldenJSON pins the exact byte layout of the -timeseries-out
// JSON artifact: hand-built encoding, stable field order.
func TestTimeseriesGoldenJSON(t *testing.T) {
	reg, c, g, _ := samplerFixture()
	s := NewSampler(reg, 2*time.Millisecond, 4)
	c.Add(5)
	g.Set(3)
	s.Sample(2 * time.Millisecond)
	c.Add(1)
	s.Sample(4 * time.Millisecond)

	var buf bytes.Buffer
	if err := s.Timeseries().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "period_ns": 2000000,
  "times_ns": [2000000,4000000],
  "series": [
    {"name": "segments_total", "kind": "counter", "values": [5,6]},
    {"name": "conns_active", "kind": "gauge", "values": [3,3]},
    {"name": "rtt_ns.count", "kind": "histogram", "values": [0,0]},
    {"name": "rtt_ns.sum", "kind": "histogram", "values": [0,0]}
  ]
}
`
	if buf.String() != golden {
		t.Errorf("timeseries JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
	// And it must stay parseable as ordinary JSON.
	var parsed struct {
		PeriodNs int64   `json:"period_ns"`
		TimesNs  []int64 `json:"times_ns"`
		Series   []struct {
			Name   string  `json:"name"`
			Kind   string  `json:"kind"`
			Values []int64 `json:"values"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("golden JSON does not parse: %v", err)
	}
	if parsed.PeriodNs != 2000000 || len(parsed.Series) != 4 {
		t.Errorf("parsed golden lost content: %+v", parsed)
	}
}
