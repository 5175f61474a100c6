// Package sim provides a deterministic discrete-event simulation engine.
//
// Every component of the simulated network (NICs, protocol timers,
// applications) schedules work on a single Scheduler. Events execute in
// strict virtual-time order with stable FIFO tie-breaking, so a simulation
// with a fixed RNG seed is fully reproducible. Virtual time has nanosecond
// resolution, which lets the benchmark harness report microsecond-scale
// latencies the way the paper's testbed measurements do.
//
// The scheduler is built for the hot path: the priority queue is a
// hand-rolled indexed binary min-heap over []*event (no interface boxing,
// sift-up/down specialized to the (when, seq) key), and fired or canceled
// events are recycled through a FreeList, which the hosts and LANs use for
// their own callback arguments too. TCP timer churn — a retransmission timer
// re-armed per segment — therefore allocates nothing in steady state, while
// what a set-up burst left idle is shed to the collector once the load
// settles. Callers hold Timer handles, not events; a generation counter in
// each pooled event makes Stop on a stale handle (whose event has been
// recycled for an unrelated purpose, or shed) a safe no-op.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tcpfailover/internal/obs"
)

// ErrEventLimit is returned by Run when the configured safety limit on the
// number of executed events is exceeded, which almost always indicates a
// livelock in the simulated protocols (for example, two stacks
// retransmitting to each other forever).
var ErrEventLimit = errors.New("sim: event limit exceeded")

// DefaultEventLimit bounds a single Run call. Large enough for 100 MB
// stream-transfer experiments, small enough to fail fast on livelock.
const DefaultEventLimit = 200_000_000

// StreamID identifies an event stream: an independent (seq, rng) lane inside
// a Scheduler. A plain scheduler has exactly one stream (id 0) and behaves as
// it always has. The sharded engine gives every cell of a partitioned
// topology its own stream, so the total event order — the heap key is
// (when, stream, seq) — and every random draw are functions of the topology
// alone, not of how cells are grouped onto domain schedulers. That is the
// property that makes a sharded run byte-identical to the sequential one.
type StreamID uint32

// streamState is one stream's allocation lane: its FIFO tie-break counter,
// its deterministic random source, and its execution digest.
type streamState struct {
	id       StreamID
	seq      uint64
	rng      *rand.Rand
	executed int64
	digest   uint64
}

// Stream is a handle to a scheduler stream, returned by NewStream.
type Stream struct {
	s  *Scheduler
	st *streamState
}

// Executed returns the number of events executed under this stream.
func (st *Stream) Executed() int64 { return st.st.executed }

// Use makes the stream current: events scheduled from outside the event loop
// (scenario construction, harness dial timers) are keyed and seeded under it.
// Inside the loop the current stream follows the executing event, so causal
// chains inherit their ancestor's stream automatically.
func (st *Stream) Use() { st.s.cur = st.st }

// event is a pooled scheduled callback. Exactly one of fn and fnArg is set.
// A pending event lives either in the heap (index >= 0) or staged in a
// timing-wheel slot (slot >= 0: near level below wheelSlots, far level at
// or above), never both.
type event struct {
	when  time.Duration
	seq   uint64
	sid   StreamID
	st    *streamState // stream the callback executes under
	name  string
	fn    func()
	fnArg func(any)
	arg   any

	sched *Scheduler
	index int    // heap index, -1 when not in the heap
	slot  int32  // wheel slot, -1 when not staged in the wheel
	gen   uint64 // bumped on recycle; validates Timer handles
	// Intrusive links of the wheel slot's doubly-linked list. Linking
	// through the pooled events keeps staging allocation-free: a slot's
	// first use (each wheelTick of virtual time starts one) costs nothing.
	slotNext *event
	slotPrev *event
}

// Timer is a handle to a scheduled callback, returned by At/After. The zero
// Timer is valid and behaves as an already-fired timer. Because events are
// pooled, the handle carries the event's generation: Stop and Pending on a
// handle whose event has fired and been recycled are safe no-ops even if the
// event object now backs an unrelated timer.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the timer had been pending
// (true) or had already fired, been stopped, or been recycled (false).
// The event is unlinked from the heap and recycled immediately, so a timer
// armed and canceled repeatedly — TCP's retransmission timer, re-armed per
// segment — cycles one pooled event instead of stacking dead entries in
// the queue until their deadlines.
func (t Timer) Stop() bool {
	e := t.ev
	if e == nil || e.gen != t.gen {
		return false
	}
	s := e.sched
	if e.slot >= 0 {
		// Staged in a wheel level: O(1) unlink from its slot.
		w := s.wheel
		if e.slot >= wheelSlots {
			w = s.far
		}
		s.pending--
		w.remove(e)
		s.release(e)
		return true
	}
	if e.index < 0 {
		return false
	}
	// removeAt sifts against the root: a callback stopping a heap-resident
	// timer closes its own vacancy first (which may move e).
	s.closeVacancy()
	s.pending--
	s.removeAt(e.index)
	s.release(e)
	return true
}

// Pending reports whether the timer is still scheduled to run.
func (t Timer) Pending() bool {
	e := t.ev
	return e != nil && e.gen == t.gen && (e.index >= 0 || e.slot >= 0)
}

// When returns the virtual time at which the timer fires, or 0 if it is no
// longer scheduled.
func (t Timer) When() time.Duration {
	if !t.Pending() {
		return 0
	}
	return t.ev.when
}

// Scheduler is a single-threaded discrete-event executor with a virtual
// clock. It is not safe for concurrent use; all simulated components run
// inside its event loop. Independent Schedulers are safe to run on separate
// goroutines (the parallel benchmark harness does).
type Scheduler struct {
	now   time.Duration
	queue []heapNode // indexed binary min-heap on (when, stream, seq)
	// vacant: fire has taken queue[0]'s event and its callback is running;
	// the slot still counts in len(queue) but holds no event. The first
	// push fills it, fire closes it otherwise, so it is set only inside a
	// callback: settle, RunUntil, runBefore and nextEventBound, which read
	// queue[0], run outside one and always see the root filled.
	vacant bool
	wheel  *timerWheel // near staging level
	far    *timerWheel // far staging level; nil until the first far arm
	// farFrom is a lower bound on the start of the far level's earliest
	// staged slot, maxDuration when that level is empty: settle's one
	// comparison against the heap top. Stop leaves it low; cascade
	// refreshes it.
	farFrom  time.Duration
	free     FreeList[event] // recycled events
	pending  int             // queued events not yet stopped
	cur      *streamState
	streams  []*streamState // registration order; streams[0] is stream 0
	digestOn bool
	limit    int
	executed int

	// Observability handles (discard slots until AttachObs): which arm each
	// schedule() takes. The wheel-vs-heap split is the figure of merit for
	// the staging heuristic, so it is exported rather than inferred.
	wheelArms obs.Counter
	heapArms  obs.Counter

	scratch []byte // see Scratch; nil until asked for
}

// New returns a Scheduler whose RNG is seeded with seed, making the entire
// simulation reproducible.
func New(seed int64) *Scheduler {
	st := &streamState{id: 0, rng: rand.New(rand.NewSource(seed))}
	s := &Scheduler{
		cur:       st,
		streams:   []*streamState{st},
		wheel:     &timerWheel{},
		farFrom:   maxDuration,
		limit:     DefaultEventLimit,
		wheelArms: (*obs.Registry)(nil).Counter("sim_timer_wheel_arms_total"),
		heapArms:  (*obs.Registry)(nil).Counter("sim_timer_heap_arms_total"),
	}
	return s
}

// AttachObs resolves the scheduler's metric handles against reg. Call once
// at scenario build time, before the simulation runs.
func (s *Scheduler) AttachObs(reg *obs.Registry) {
	s.wheelArms = reg.Counter("sim_timer_wheel_arms_total")
	s.heapArms = reg.Counter("sim_timer_heap_arms_total")
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the current stream's deterministic random source. On a plain
// scheduler this is the single seed-derived RNG it has always been; on a
// sharded domain each cell draws from its own stream's RNG, so the draw
// sequence a cell sees is independent of which other cells share its domain.
func (s *Scheduler) Rand() *rand.Rand { return s.cur.rng }

// NewStream registers an event stream with the given global id and RNG seed.
// Stream ids must be unique within a Scheduler — the sharded builder keeps
// them unique across the whole topology so event keys are global. Panics on
// a duplicate id.
func (s *Scheduler) NewStream(id StreamID, seed int64) *Stream {
	for _, st := range s.streams {
		if st.id == id {
			panic(fmt.Sprintf("sim: duplicate stream id %d", id))
		}
	}
	st := &streamState{id: id, rng: rand.New(rand.NewSource(seed))}
	s.streams = append(s.streams, st)
	return &Stream{s: s, st: st}
}

// EnableDigest turns on per-stream execution digesting: each executed event
// folds its (when, stream, seq, name) key into the owning stream's running
// FNV-1a hash. Two runs whose digests match executed the same events with
// the same keys in the same per-stream order — the differential tests use
// this to prove shard-count independence without recording full traces.
func (s *Scheduler) EnableDigest() { s.digestOn = true }

// StreamDigest summarizes one stream's execution history.
type StreamDigest struct {
	ID       StreamID
	Executed int64
	Digest   uint64
}

// StreamDigests returns every stream's digest, ordered by stream id.
func (s *Scheduler) StreamDigests() []StreamDigest {
	out := make([]StreamDigest, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, StreamDigest{ID: st.id, Executed: st.executed, Digest: st.digest})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldDigest mixes one event key into a stream digest.
func foldDigest(h uint64, when time.Duration, sid StreamID, seq uint64, name string) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	h = (h ^ uint64(when)) * fnvPrime
	h = (h ^ uint64(sid)) * fnvPrime
	h = (h ^ seq) * fnvPrime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// Executed returns the total number of events executed so far.
func (s *Scheduler) Executed() int { return s.executed }

// acquire takes an event from the free list or allocates one.
func (s *Scheduler) acquire() *event {
	if ev := s.free.Get(); ev != nil {
		return ev
	}
	return &event{sched: s, index: -1, slot: -1}
}

// release recycles an event. Bumping the generation invalidates every Timer
// handle that still points at it, so a later Stop through a stale handle
// cannot corrupt the event's next incarnation.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.st = nil
	ev.name = ""
	ev.index = -1
	ev.slot = -1
	s.free.Put(ev)
}

// schedule inserts a prepared event and returns its handle. Events whose
// deadline is comfortably ahead of the current tick and within the near
// wheel's horizon are staged in a slot (O(1)); those beyond it, in the far
// level's; everything else goes straight into the heap. Near-term events —
// packet hops and CPU charges, microseconds out — are deliberately
// excluded: they execute almost immediately, so staging would only add a
// settle-time flush on top of the heap push they pay anyway. The near wheel
// is for the timers that usually get canceled (delayed ack, retransmission),
// whose cancel then costs O(1) unlinking instead of an O(log n) heap
// repair; the far level keeps the long ones (TIME-WAIT) out of the heap.
func (s *Scheduler) schedule(ev *event) Timer {
	cur := s.cur
	ev.sid = cur.id
	ev.seq = cur.seq
	ev.st = cur
	cur.seq++
	s.pending++
	w := s.wheel
	nowTick := int64(s.now / wheelTick)
	w.advance(nowTick)
	if t := int64(ev.when / wheelTick); t > nowTick+1 {
		if w.holds(t) {
			s.wheelArms.Inc()
			w.insert(ev, t)
			return Timer{ev: ev, gen: ev.gen}
		}
		if t-w.baseTick >= wheelSlots && s.stageFar(ev, t) {
			s.wheelArms.Inc()
			return Timer{ev: ev, gen: ev.gen}
		}
	}
	s.heapArms.Inc()
	s.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event runs after all events already
// queued for the current instant). The name is used in diagnostics only.
func (s *Scheduler) At(t time.Duration, name string, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	ev := s.acquire()
	ev.when = t
	ev.name = name
	ev.fn = fn
	return s.schedule(ev)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, name string, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, name, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. Passing a top-level
// function plus its argument instead of a closure lets hot paths (packet
// hops, TCP timers) schedule without allocating a closure per event.
func (s *Scheduler) AtArg(t time.Duration, name string, fn func(any), arg any) Timer {
	if t < s.now {
		t = s.now
	}
	ev := s.acquire()
	ev.when = t
	ev.name = name
	ev.fnArg = fn
	ev.arg = arg
	return s.schedule(ev)
}

// AfterArg schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterArg(d time.Duration, name string, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, name, fn, arg)
}

// Inject schedules fn(arg) under an explicit (when, sid, seq) heap key,
// executing under exec's stream. This is the cross-domain delivery
// primitive: the shard mailboxes allocate (sid, seq) from their own wire
// stream on the sending side, so the key — and therefore the merged
// execution order in the destination domain — is identical no matter how
// the topology is partitioned. Panics if when precedes the destination
// clock: that is a lookahead violation, the event could already have been
// passed by.
func (s *Scheduler) Inject(when time.Duration, sid StreamID, seq uint64, exec *Stream, name string, fn func(any), arg any) {
	if when < s.now {
		panic(fmt.Sprintf("sim: Inject at %v before now %v (lookahead violation)", when, s.now))
	}
	if exec.s != s {
		panic("sim: Inject exec stream belongs to a different scheduler")
	}
	ev := s.acquire()
	ev.when = when
	ev.name = name
	ev.fnArg = fn
	ev.arg = arg
	ev.sid = sid
	ev.seq = seq
	ev.st = exec.st
	s.pending++
	s.push(ev)
}

// --- heap ---------------------------------------------------------------

// heapNode is one heap entry with the ordering key held inline. Sift
// comparisons at 10k connections walk a heap whose events are scattered,
// cold cache lines; keeping (when, seq) in the contiguous node array means
// a comparison never dereferences an event — only reseating one touches it
// (to maintain event.index for O(1) cancel).
type heapNode struct {
	when time.Duration
	seq  uint64
	sid  StreamID
	ev   *event
}

// less orders nodes by (when, stream, seq): virtual time, then stream id,
// then the stream's FIFO counter. Keys are unique, so the pop sequence is a
// total order. Because seq counters are per stream, an event's key depends
// only on its causal history within its own stream — never on what other
// streams (other cells, possibly in other domains) scheduled in between —
// which is what makes the merged order shard-count independent.
func (a heapNode) less(b heapNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.sid != b.sid {
		return a.sid < b.sid
	}
	return a.seq < b.seq
}

// push adds ev to the heap. Inside a callback whose slot is still vacant the
// node goes in at the root and sifts down: a packet hop schedules its
// successor a few microseconds ahead, at or near the new minimum, so it
// moves few levels or none, where popping the old root and pushing the new
// one paid a full-height sift each.
func (s *Scheduler) push(ev *event) {
	nd := heapNode{when: ev.when, seq: ev.seq, sid: ev.sid, ev: ev}
	if s.vacant {
		s.vacant = false
		s.siftDown(0, nd)
		return
	}
	s.queue = append(s.queue, nd)
	s.siftUp(len(s.queue)-1, nd)
}

// siftUp seats nd at free slot i or, past every larger ancestor, above it.
func (s *Scheduler) siftUp(i int, nd heapNode) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !nd.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = i
		i = parent
	}
	q[i] = nd
	nd.ev.index = i
}

// siftDown seats nd at free slot i or, past every smaller child, below it,
// and returns where.
func (s *Scheduler) siftDown(i int, nd heapNode) int {
	q := s.queue
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].less(q[child]) {
			child = r
		}
		if !q[child].less(nd) {
			break
		}
		q[i] = q[child]
		q[i].ev.index = i
		i = child
	}
	q[i] = nd
	nd.ev.index = i
	return i
}

// removeAt frees heap slot i (the caller releases its event, if it still
// holds one), moving the last node into its place and restoring the heap
// invariant. Removal order does not affect execution order — (when, stream,
// seq) keys are unique, so the pop sequence is a total order regardless of
// the heap's internal arrangement.
func (s *Scheduler) removeAt(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = heapNode{}
	s.queue = s.queue[:n]
	// Re-seat last at i: down, and if it never moved, up (it may be smaller
	// than the removed event's ancestors).
	if i < n && s.siftDown(i, last) == i {
		s.siftUp(i, last)
	}
}

// closeVacancy removes the root slot a callback left unfilled.
func (s *Scheduler) closeVacancy() {
	if s.vacant {
		s.vacant = false
		s.removeAt(0)
	}
}

// --- execution ----------------------------------------------------------

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	s.settle()
	if len(s.queue) == 0 {
		return false
	}
	s.fire()
	return true
}

// fire executes the heap's earliest event. The caller has settled, so that
// is the globally earliest one, and found the heap non-empty.
func (s *Scheduler) fire() {
	ev := s.queue[0].ev
	s.vacant = true
	s.now = ev.when
	s.executed++
	s.pending--
	// The executing event's stream becomes current, so work it schedules
	// inherits its stream — causal chains stay in their cell's lane.
	st := ev.st
	s.cur = st
	st.executed++
	if s.digestOn {
		st.digest = foldDigest(st.digest, ev.when, ev.sid, ev.seq, ev.name)
	}
	// Copy the callback out and recycle before invoking: the callback
	// may schedule new work, which can immediately reuse this event
	// (under a fresh generation).
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	s.release(ev)
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
	s.closeVacancy()
}

// Run executes events until the queue is empty or the event limit is
// exceeded.
func (s *Scheduler) Run() error {
	start := s.executed
	for s.Step() {
		if s.executed-start > s.limit {
			return fmt.Errorf("%w (%d events, now=%v)", ErrEventLimit, s.executed-start, s.now)
		}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t.
func (s *Scheduler) RunUntil(t time.Duration) error {
	start := s.executed
	for {
		// After settle the heap top is the globally earliest pending event:
		// every staged wheel event lies in a strictly later tick, hence
		// strictly after the heap top.
		s.settle()
		if len(s.queue) == 0 || s.queue[0].when > t {
			if s.now < t {
				s.now = t
			}
			return nil
		}
		s.fire()
		if s.executed-start > s.limit {
			return fmt.Errorf("%w (%d events, now=%v)", ErrEventLimit, s.executed-start, s.now)
		}
	}
}

// RunFor executes events for a span d of virtual time from the current
// instant.
func (s *Scheduler) RunFor(d time.Duration) error { return s.RunUntil(s.now + d) }

// Scratch returns an n-byte buffer owned by the event loop, allocated on
// first use and grown to the largest n asked for. One callback runs at a
// time, so everything on the loop may share it, but the next call, by
// anyone, may reuse it: its contents are the caller's only until it hands
// control to other code.
func (s *Scheduler) Scratch(n int) []byte {
	if len(s.scratch) < n {
		s.scratch = make([]byte, n)
	}
	return s.scratch[:n]
}

// PendingEvents returns the number of queued (not yet stopped) events. The
// count is maintained incrementally; this is O(1).
func (s *Scheduler) PendingEvents() int { return s.pending }
