package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// perfettoFixture builds a tiny deterministic trace: one connection that
// lives through a failover (so it carries setup, stall, and milestone
// events) plus a two-row counter timeseries.
func perfettoFixture() (*SpanRecorder, *Timeseries) {
	r := NewSpanRecorder()
	key := uint64(0x0a000002)<<32 | uint64(40000)<<16 | 9000
	r.Mark(key, SpanSynSent, 1*time.Millisecond)
	r.Mark(key, SpanEstablished, 2*time.Millisecond)
	r.Progress(key, 90*time.Millisecond)
	r.MarkFailure(100 * time.Millisecond)
	r.MarkDetect(140 * time.Millisecond)
	r.MarkTakeover(145 * time.Millisecond)
	r.Mark(key, SpanFirstDiverted, 146*time.Millisecond)
	r.Mark(key, SpanFirstAfterTakeover, 150*time.Millisecond)
	r.Progress(key, 155*time.Millisecond)

	reg := NewRegistry()
	c := reg.Counter("segments_total")
	s := NewSampler(reg, 50*time.Millisecond, 4)
	c.Add(10)
	s.Sample(50 * time.Millisecond)
	c.Add(32)
	s.Sample(100 * time.Millisecond)
	return r, s.Timeseries()
}

// TestPerfettoGolden pins the exact trace-event JSON byte layout: stable
// field order, microsecond timestamps with nanosecond fractions, the span
// process, fleet marks, and counter tracks.
func TestPerfettoGolden(t *testing.T) {
	spans, ts := perfettoFixture()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, spans, ts); err != nil {
		t.Fatal(err)
	}
	const golden = `{"displayTimeUnit": "ns", "traceEvents": [
  {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "connections"}},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "fleet"}},
  {"name": "process_name", "ph": "M", "pid": 2, "tid": 0, "args": {"name": "metrics"}},
  {"name": "failure_injected", "ph": "i", "pid": 1, "tid": 0, "ts": 100000.000, "s": "g"},
  {"name": "detector_fired", "ph": "i", "pid": 1, "tid": 0, "ts": 140000.000, "s": "g"},
  {"name": "takeover_done", "ph": "i", "pid": 1, "tid": 0, "ts": 145000.000, "s": "g"},
  {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "conn 0a000002:40000->9000"}},
  {"name": "setup", "ph": "X", "pid": 1, "tid": 1, "ts": 1000.000, "dur": 1000.000},
  {"name": "stall", "ph": "X", "pid": 1, "tid": 1, "ts": 90000.000, "dur": 65000.000, "args": {"precrash_ns": 10000000, "detection_ns": 40000000, "announce_ns": 5000000, "resume_ns": 5000000, "recovery_ns": 5000000}},
  {"name": "syn_sent", "ph": "i", "pid": 1, "tid": 1, "ts": 1000.000, "s": "t"},
  {"name": "established", "ph": "i", "pid": 1, "tid": 1, "ts": 2000.000, "s": "t"},
  {"name": "first_byte", "ph": "i", "pid": 1, "tid": 1, "ts": 90000.000, "s": "t"},
  {"name": "last_progress", "ph": "i", "pid": 1, "tid": 1, "ts": 90000.000, "s": "t"},
  {"name": "first_diverted", "ph": "i", "pid": 1, "tid": 1, "ts": 146000.000, "s": "t"},
  {"name": "first_after_takeover", "ph": "i", "pid": 1, "tid": 1, "ts": 150000.000, "s": "t"},
  {"name": "first_recovery", "ph": "i", "pid": 1, "tid": 1, "ts": 155000.000, "s": "t"},
  {"name": "segments_total", "ph": "C", "pid": 2, "tid": 0, "ts": 50000.000, "args": {"value": 10}},
  {"name": "segments_total", "ph": "C", "pid": 2, "tid": 0, "ts": 100000.000, "args": {"value": 42}}
]}
`
	if buf.String() != golden {
		t.Errorf("perfetto output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
}

// TestPerfettoValidJSON checks the emitted trace parses as ordinary JSON in
// the trace-event shape ui.perfetto.dev expects.
func TestPerfettoValidJSON(t *testing.T) {
	spans, ts := perfettoFixture()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, spans, ts); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", trace.DisplayTimeUnit)
	}
	kinds := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "" || ev.Name == "" {
			t.Errorf("event missing ph/name: %+v", ev)
		}
		kinds[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if kinds[ph] == 0 {
			t.Errorf("no %q events emitted: %v", ph, kinds)
		}
	}
}

// TestPerfettoEmpty checks the degenerate inputs stay valid.
func TestPerfettoEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}
