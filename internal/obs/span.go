package obs

import (
	"sort"
	"time"

	"tcpfailover/internal/flowtab"
)

// SpanMilestone indexes one typed lifecycle timestamp in a connection span.
type SpanMilestone uint8

// Per-connection lifecycle milestones, in causal order. Each is recorded at
// most once per connection (set-if-unset), except LastProgress, which is
// overwritten on every delivery until the takeover mark freezes it. Nothing
// the secondary produces reaches the client before that mark, so a delivery
// between failure and takeover is a frame that had already left the primary
// when it died: the frozen value is the last delivery the primary served,
// the anchor the stall is measured from.
const (
	SpanSynSent SpanMilestone = iota
	SpanEstablished
	SpanFirstByte
	SpanLastProgress
	SpanFirstDiverted
	SpanFirstAfterTakeover
	SpanFirstRecovery
	NumSpanMilestones
)

// spanMilestoneNames are the export names, indexed by SpanMilestone.
var spanMilestoneNames = [NumSpanMilestones]string{
	"syn_sent",
	"established",
	"first_byte",
	"last_progress",
	"first_diverted",
	"first_after_takeover",
	"first_recovery",
}

// String returns the export name of the milestone.
func (m SpanMilestone) String() string {
	if m < NumSpanMilestones {
		return spanMilestoneNames[m]
	}
	return "unknown"
}

// Span is one connection's lifecycle record. It is pointer-free so a slab
// of a million spans is a single never-scanned allocation (the flowtab
// discipline from DESIGN.md §12).
type Span struct {
	// Key is the packed flow key (clientAddr<<32 | clientPort<<16 |
	// servicePort) shared by the client stack and the secondary bridge's
	// divert path, so both sides write into the same record.
	Key uint64
	// Times holds one sim timestamp per milestone; only entries whose bit
	// is set in Set are valid.
	Times [NumSpanMilestones]time.Duration
	// Set is the valid-milestone bitmask (bit i <-> SpanMilestone i).
	Set uint32
	// Retransmits counts retransmission events attributed to this flow.
	Retransmits uint32
	// ZeroWindowStalls counts zero-window (persist-timer) stalls.
	ZeroWindowStalls uint32
}

// Has reports whether milestone m was recorded.
func (s *Span) Has(m SpanMilestone) bool { return s.Set&(1<<m) != 0 }

// Time returns the timestamp of milestone m and whether it was recorded.
func (s *Span) Time(m SpanMilestone) (time.Duration, bool) {
	return s.Times[m], s.Has(m)
}

// SpanRecorder collects per-connection lifecycle spans for a whole fleet.
// Storage is pointer-free (flowtab.Table over flowtab.Slab), updates are
// index-addressed stores with no steady-state allocation, and every
// timestamp is sim time, so the record set is a deterministic function of
// the simulation — byte-identical digests across worker and shard counts.
//
// The recorder keeps every span it sees: it is attached only to scenarios
// that ask for spans, and each of those runs a bounded number of
// connections.
//
// Like the rest of the observability core it belongs to one single-threaded
// simulation domain; sharded runs give each cell its own recorder and merge
// digests/records afterwards.
type SpanRecorder struct {
	tab   flowtab.Table
	slab  flowtab.Slab[Span]
	total Counter // spans ever recorded, which is every span held

	// Fleet-wide failover marks, shared by every span's phase attribution.
	failureAt, detectAt, takeoverAt time.Duration
	haveFailure, haveDetect         bool
	haveTakeover                    bool
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	r := &SpanRecorder{}
	r.AttachObs(nil)
	return r
}

// AttachObs re-homes the recorder's own series (the recorded-span counter)
// onto reg. Call before traffic; the handle is pre-resolved so the steady
// state never branches on attachment.
func (r *SpanRecorder) AttachObs(reg *Registry) {
	r.total = reg.Counter("obs_spans_total")
	r.total.Add(int64(r.slab.Len()))
}

// Len returns the number of spans held.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.slab.Len()
}

// slot returns the slab index for key, creating a fresh span when none
// exists.
func (r *SpanRecorder) slot(key uint64) uint32 {
	if i, ok := r.tab.Get(key); ok {
		return i
	}
	i := r.slab.Alloc()
	r.slab.At(i).Key = key
	r.tab.Put(key, i)
	r.total.Inc()
	return i
}

// Mark records milestone m for key at sim time now (set-if-unset). A span
// is created on first sight of the key.
func (r *SpanRecorder) Mark(key uint64, m SpanMilestone, now time.Duration) {
	if r == nil {
		return
	}
	sp := r.slab.At(r.slot(key))
	if sp.Set&(1<<m) == 0 {
		sp.Times[m] = now
		sp.Set |= 1 << m
	}
}

// Progress records one in-order payload delivery for key at sim time now.
// Before the takeover mark it advances LastProgress (the stall's anchor);
// after it, the first delivery becomes FirstRecovery and LastProgress stays
// frozen. FirstByte is recorded on the first delivery either way.
func (r *SpanRecorder) Progress(key uint64, now time.Duration) {
	if r == nil {
		return
	}
	sp := r.slab.At(r.slot(key))
	if sp.Set&(1<<SpanFirstByte) == 0 {
		sp.Times[SpanFirstByte] = now
		sp.Set |= 1 << SpanFirstByte
	}
	if !r.haveTakeover {
		sp.Times[SpanLastProgress] = now
		sp.Set |= 1 << SpanLastProgress
		return
	}
	if sp.Set&(1<<SpanFirstRecovery) == 0 {
		sp.Times[SpanFirstRecovery] = now
		sp.Set |= 1 << SpanFirstRecovery
	}
}

// Retransmit attributes one retransmission to key's span, if it exists.
func (r *SpanRecorder) Retransmit(key uint64) {
	if r == nil {
		return
	}
	if i, ok := r.tab.Get(key); ok {
		r.slab.At(i).Retransmits++
	}
}

// ZeroWindow attributes one zero-window stall to key's span, if it exists.
func (r *SpanRecorder) ZeroWindow(key uint64) {
	if r == nil {
		return
	}
	if i, ok := r.tab.Get(key); ok {
		r.slab.At(i).ZeroWindowStalls++
	}
}

// MarkFailure records the fleet-wide failure-injection time (set-if-unset).
func (r *SpanRecorder) MarkFailure(now time.Duration) {
	if r == nil || r.haveFailure {
		return
	}
	r.failureAt, r.haveFailure = now, true
}

// MarkDetect records when the failure detector fired (set-if-unset).
func (r *SpanRecorder) MarkDetect(now time.Duration) {
	if r == nil || r.haveDetect {
		return
	}
	r.detectAt, r.haveDetect = now, true
}

// MarkTakeover records when the secondary finished taking over the service
// address — the ARP announce instant (set-if-unset). From this point
// Progress freezes LastProgress and starts FirstRecovery.
func (r *SpanRecorder) MarkTakeover(now time.Duration) {
	if r == nil || r.haveTakeover {
		return
	}
	r.takeoverAt, r.haveTakeover = now, true
}

// FailureMark returns the failure-injection time and whether it was marked.
func (r *SpanRecorder) FailureMark() (time.Duration, bool) {
	return r.failureAt, r.haveFailure
}

// DetectMark returns the detector-fired time and whether it was marked.
func (r *SpanRecorder) DetectMark() (time.Duration, bool) {
	return r.detectAt, r.haveDetect
}

// TakeoverMark returns the takeover/ARP-announce time and whether it was
// marked.
func (r *SpanRecorder) TakeoverMark() (time.Duration, bool) {
	return r.takeoverAt, r.haveTakeover
}

// TakeoverMarked reports whether takeover has been marked; the client
// stack's input path branches on this single bool pre-takeover.
func (r *SpanRecorder) TakeoverMarked() bool { return r != nil && r.haveTakeover }

// Lookup returns a copy of key's span.
func (r *SpanRecorder) Lookup(key uint64) (Span, bool) {
	if r == nil {
		return Span{}, false
	}
	i, ok := r.tab.Get(key)
	if !ok {
		return Span{}, false
	}
	return *r.slab.At(i), true
}

// Spans returns copies of every live span, sorted by key — the canonical
// order every exporter and digest uses.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.slab.Len())
	r.slab.Range(func(_ uint32, sp *Span) { out = append(out, *sp) })
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Digest returns an FNV-1a hash over every live span (sorted by key) and
// the fleet marks. Two recorders that observed the same simulation produce
// the same digest regardless of worker or shard count — the determinism
// gates compare exactly this.
func (r *SpanRecorder) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	if r == nil {
		return h
	}
	for _, sp := range r.Spans() {
		mix(sp.Key)
		mix(uint64(sp.Set))
		for m := SpanMilestone(0); m < NumSpanMilestones; m++ {
			if sp.Has(m) {
				mix(uint64(sp.Times[m]))
			}
		}
		mix(uint64(sp.Retransmits))
		mix(uint64(sp.ZeroWindowStalls))
	}
	marks := [...]struct {
		t    time.Duration
		have bool
	}{{r.failureAt, r.haveFailure}, {r.detectAt, r.haveDetect}, {r.takeoverAt, r.haveTakeover}}
	for _, mk := range marks {
		if mk.have {
			mix(uint64(mk.t) | 1<<63)
		} else {
			mix(0)
		}
	}
	return h
}

// MergeSpanDigests folds per-cell digests into one fleet digest, order-
// sensitively (cells are always folded in cell-index order).
func MergeSpanDigests(digests []uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, d := range digests {
		for s := 0; s < 64; s += 8 {
			h ^= (d >> s) & 0xff
			h *= prime64
		}
	}
	return h
}
