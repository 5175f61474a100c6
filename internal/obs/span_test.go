package obs

import (
	"testing"
	"time"
)

func TestSpanMilestoneSemantics(t *testing.T) {
	r := NewSpanRecorder()
	const key = uint64(0x0a00000200008000) | 9000

	r.Mark(key, SpanSynSent, 10*time.Millisecond)
	r.Mark(key, SpanSynSent, 20*time.Millisecond) // set-if-unset: ignored
	r.Mark(key, SpanEstablished, 30*time.Millisecond)

	// Pre-takeover progress advances LastProgress every time and records
	// FirstByte once — including a delivery after the failure mark, which
	// can only be a frame that had already left the primary.
	r.Progress(key, 40*time.Millisecond)
	r.MarkFailure(45 * time.Millisecond)
	r.Progress(key, 50*time.Millisecond)
	r.MarkTakeover(100 * time.Millisecond)
	// Post-takeover progress freezes LastProgress and sets FirstRecovery once.
	r.Progress(key, 200*time.Millisecond)
	r.Progress(key, 210*time.Millisecond)

	sp, ok := r.Lookup(key)
	if !ok {
		t.Fatal("span not found")
	}
	want := map[SpanMilestone]time.Duration{
		SpanSynSent:       10 * time.Millisecond,
		SpanEstablished:   30 * time.Millisecond,
		SpanFirstByte:     40 * time.Millisecond,
		SpanLastProgress:  50 * time.Millisecond,
		SpanFirstRecovery: 200 * time.Millisecond,
	}
	for m, w := range want {
		got, ok := sp.Time(m)
		if !ok || got != w {
			t.Errorf("%s = %v (set=%v), want %v", m, got, ok, w)
		}
	}
	if sp.Has(SpanFirstDiverted) || sp.Has(SpanFirstAfterTakeover) {
		t.Error("unmarked milestones reported as set")
	}

	r.Retransmit(key)
	r.Retransmit(key)
	r.ZeroWindow(key)
	r.Retransmit(12345) // unknown key: must not create a span
	sp, _ = r.Lookup(key)
	if sp.Retransmits != 2 || sp.ZeroWindowStalls != 1 {
		t.Errorf("counters = %d/%d, want 2/1", sp.Retransmits, sp.ZeroWindowStalls)
	}
	if r.Len() != 1 {
		t.Errorf("recorder holds %d spans, want 1 (Retransmit on unknown key must not allocate one)", r.Len())
	}
}

// TestSpanRecorderKeepsEverySpan: the recorder holds one span per key it
// has seen, and the recorded-span counter counts them.
func TestSpanRecorderKeepsEverySpan(t *testing.T) {
	reg := NewRegistry()
	r := NewSpanRecorder()
	r.AttachObs(reg)
	const keys = 1000
	for i := 0; i < keys; i++ {
		r.Mark(uint64(i+1), SpanSynSent, time.Duration(i)*time.Microsecond)
		r.Mark(uint64(i/2+1), SpanEstablished, time.Duration(i)*time.Microsecond)
	}
	if r.Len() != keys {
		t.Errorf("live spans = %d, want %d", r.Len(), keys)
	}
	if total, _ := reg.Lookup("obs_spans_total"); total != keys {
		t.Errorf("obs_spans_total = %d, want %d", total, keys)
	}
	for i := 0; i < keys; i++ {
		sp, ok := r.Lookup(uint64(i + 1))
		if !ok || !sp.Has(SpanSynSent) {
			t.Fatalf("span %d lost its SYN mark (present %v)", i+1, ok)
		}
	}
}

// TestSpanDigestDeterministic checks the digest is a function of the record
// set and marks only — insertion order must not matter, content must.
func TestSpanDigestDeterministic(t *testing.T) {
	build := func(order []uint64) *SpanRecorder {
		r := NewSpanRecorder()
		for _, k := range order {
			r.Mark(k, SpanSynSent, time.Duration(k)*time.Millisecond)
			r.Progress(k, time.Duration(k+5)*time.Millisecond)
		}
		r.MarkFailure(100 * time.Millisecond)
		r.MarkDetect(120 * time.Millisecond)
		r.MarkTakeover(130 * time.Millisecond)
		return r
	}
	a := build([]uint64{1, 2, 3}).Digest()
	b := build([]uint64{3, 1, 2}).Digest()
	if a != b {
		t.Errorf("digest depends on insertion order: %016x vs %016x", a, b)
	}
	c := build([]uint64{1, 2, 4}).Digest()
	if a == c {
		t.Error("digest blind to record content")
	}
	// Marks must be digested too.
	r := NewSpanRecorder()
	r.Mark(1, SpanSynSent, time.Millisecond)
	d1 := r.Digest()
	r.MarkFailure(2 * time.Millisecond)
	if r.Digest() == d1 {
		t.Error("digest blind to fleet marks")
	}
	// Fold order sensitivity.
	if MergeSpanDigests([]uint64{a, c}) == MergeSpanDigests([]uint64{c, a}) {
		t.Error("merged digest blind to cell order")
	}
}

// TestSpanRecorderNilSafe checks that every method is a no-op on a nil
// recorder — the hooks in the TCP stack and bridges call unconditionally.
func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	r.Mark(1, SpanSynSent, 0)
	r.Progress(1, 0)
	r.Retransmit(1)
	r.ZeroWindow(1)
	r.MarkFailure(0)
	r.MarkDetect(0)
	r.MarkTakeover(0)
	if r.TakeoverMarked() {
		t.Error("nil recorder reports takeover marked")
	}
	if _, ok := r.Lookup(1); ok {
		t.Error("nil recorder found a span")
	}
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	if _, ok := r.Stall(&Span{}); ok {
		t.Error("nil recorder computed a stall")
	}
	r.Digest() // must not panic
}

func TestStallAttributionTiles(t *testing.T) {
	r := NewSpanRecorder()
	const key = uint64(42)
	r.Mark(key, SpanSynSent, 1*time.Millisecond)
	r.Mark(key, SpanEstablished, 2*time.Millisecond)
	r.Progress(key, 90*time.Millisecond)
	r.MarkFailure(100 * time.Millisecond)
	r.MarkDetect(140 * time.Millisecond)
	r.MarkTakeover(145 * time.Millisecond)
	r.Mark(key, SpanFirstAfterTakeover, 150*time.Millisecond)
	r.Progress(key, 155*time.Millisecond)

	sp, _ := r.Lookup(key)
	st, ok := r.Stall(&sp)
	if !ok {
		t.Fatal("no stall computed")
	}
	if st.Anchor != 90*time.Millisecond {
		t.Errorf("anchor = %v, want last pre-crash progress 90ms", st.Anchor)
	}
	if st.Total != 65*time.Millisecond {
		t.Errorf("total = %v, want 65ms", st.Total)
	}
	wants := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"precrash", st.PreCrash, 10 * time.Millisecond},
		{"detection", st.Detection, 40 * time.Millisecond},
		{"announce", st.Announce, 5 * time.Millisecond},
		{"resume", st.Resume, 5 * time.Millisecond},
		{"recovery", st.Recovery, 5 * time.Millisecond},
	}
	sum := time.Duration(0)
	for _, w := range wants {
		if w.got != w.want {
			t.Errorf("%s = %v, want %v", w.name, w.got, w.want)
		}
		sum += w.got
	}
	if sum != st.Total {
		t.Errorf("phases sum to %v, total is %v — must tile exactly", sum, st.Total)
	}
}

func TestStallAttributionAnchorFallbackAndRejects(t *testing.T) {
	r := NewSpanRecorder()
	r.MarkFailure(100 * time.Millisecond)
	r.MarkDetect(140 * time.Millisecond)
	r.MarkTakeover(145 * time.Millisecond)

	// Established but no payload before the crash: anchor falls back to
	// establishment.
	r.Mark(1, SpanSynSent, 95*time.Millisecond)
	r.Mark(1, SpanEstablished, 98*time.Millisecond)
	r.Progress(1, 160*time.Millisecond)
	sp, _ := r.Lookup(1)
	if st, ok := r.Stall(&sp); !ok || st.Anchor != 98*time.Millisecond {
		t.Errorf("established fallback: ok=%v anchor=%v, want 98ms", ok, st.Anchor)
	}

	// Mid-handshake: anchor falls back to SYN.
	r.Mark(2, SpanSynSent, 99*time.Millisecond)
	r.Progress(2, 170*time.Millisecond)
	sp, _ = r.Lookup(2)
	if st, ok := r.Stall(&sp); !ok || st.Anchor != 99*time.Millisecond {
		t.Errorf("syn fallback: ok=%v anchor=%v, want 99ms", ok, st.Anchor)
	}

	// Never recovered: no stall.
	r.Mark(3, SpanSynSent, 90*time.Millisecond)
	sp, _ = r.Lookup(3)
	if _, ok := r.Stall(&sp); ok {
		t.Error("unrecovered span scored a stall")
	}

	// Born after takeover: never saw the outage.
	r.Mark(4, SpanSynSent, 150*time.Millisecond)
	r.Mark(4, SpanEstablished, 151*time.Millisecond)
	r.Progress(4, 152*time.Millisecond)
	sp, _ = r.Lookup(4)
	if _, ok := r.Stall(&sp); ok {
		t.Error("post-takeover span scored a stall")
	}

	// Incomplete fleet marks: nothing scores.
	r2 := NewSpanRecorder()
	r2.Mark(1, SpanEstablished, 1*time.Millisecond)
	r2.MarkFailure(2 * time.Millisecond)
	r2.Progress(1, 3*time.Millisecond)
	sp, _ = r2.Lookup(1)
	if _, ok := r2.Stall(&sp); ok {
		t.Error("stall scored without detect/takeover marks")
	}
}
