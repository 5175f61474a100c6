package sim

import "time"

// The timer wheel.
//
// A two-level hashed timing wheel stages timers in per-tick slots, making
// arm and cancel O(1) instead of O(log n) heap sifts. The near level holds
// the short-horizon timers — TCP retransmission and delayed-ack timers,
// re-armed and canceled once per segment — so that with 10k connections
// the heap does not hold ~10k pending timers with every segment paying two
// 14-level sifts. The far level (Varghese and Lauck's hierarchical wheel,
// reduced to two levels) holds what cannot fire within the near wheel's
// one-second horizon: TIME-WAIT's 60 s linger and backed-off
// retransmissions. These are not rare — a workload that closes connections
// keeps one TIME-WAIT timer per closed connection pending for a minute —
// and in the heap they were the nodes every callback that schedules nothing
// moved to the root and sifted back down. Only what lies beyond the far
// level's ~17.5 min goes to the heap at arm time.
//
// Determinism is preserved by construction: the wheel never *executes*
// events. When a far slot's start comes due its events cascade into the
// near wheel (or the heap), and when a near slot's tick comes due its
// events are flushed into the (when, stream, seq) binary heap, and the heap
// alone decides execution order. Since keys are unique and fixed at arm
// time, the pop sequence is a total order independent of how events arrived
// in the heap: the order a sorted list of every pending event gives, which
// TestSchedulerAgainstOrderOracle holds the scheduler to.

const (
	wheelBits  = 10
	wheelSlots = 1 << wheelBits // 1024 slots per level
	wheelMask  = wheelSlots - 1
	// wheelTick × wheelSlots ≈ 1s of near horizon: covers delayed-ack
	// (200ms) and first-RTO (200ms–1s) churn.
	wheelTick = time.Millisecond
	// farTick is one far-level slot, one rotation of the near wheel; its
	// 1024 slots reach ≈ 17.5 min, past TCP's TIME-WAIT and maximum RTO (60 s each).
	farTick = wheelTick << wheelBits
)

// timerWheel is one level of the hashed wheel: wheelSlots slots over ticks
// of the level's own unit (wheelTick near, farTick far). Events in slot
// t&wheelMask all share tick t: an event is staged only when its tick lies
// in [baseTick, baseTick+wheelSlots), and a slot is emptied (flushed or
// cascaded) before baseTick passes it, so two ticks can never occupy one
// slot at the same time.
type timerWheel struct {
	// Each slot heads an intrusive doubly-linked list through the pooled
	// events. A slice per slot would re-grow from nil on every slot's first
	// use — and since each wheelTick of virtual time opens a fresh slot,
	// simulations shorter than a full rotation would allocate steadily.
	slots    [wheelSlots]*event
	baseTick int64 // lowest tick that may still be staged
	scanFrom int64 // lower bound on the earliest non-empty tick
	count    int   // staged events across all slots
	// slotBase is added to the slot index an event records: 0 near,
	// wheelSlots far, so event.slot alone tells the two levels apart.
	slotBase int32
}

// advance slides an empty level's window up to tick now. Without this the
// window goes stale whenever every staged timer is canceled before
// expiring — the near wheel's normal workload — because baseTick otherwise
// advances only when a slot is emptied.
func (w *timerWheel) advance(now int64) {
	if w.count == 0 && w.baseTick < now {
		w.baseTick = now
		w.scanFrom = now
	}
}

// holds reports whether tick t lies in the level's horizon.
func (w *timerWheel) holds(t int64) bool {
	return t >= w.baseTick && t-w.baseTick < wheelSlots
}

// insert stages ev (whose tick is t, already verified in-horizon) in O(1)
// by pushing it onto the slot's list head. Order within a slot is
// irrelevant — the heap re-establishes key order at flush time.
func (w *timerWheel) insert(ev *event, t int64) {
	idx := t & wheelMask
	ev.slot = w.slotBase + int32(idx)
	head := w.slots[idx]
	ev.slotNext = head
	ev.slotPrev = nil
	if head != nil {
		head.slotPrev = ev
	}
	w.slots[idx] = ev
	w.count++
	if t < w.scanFrom {
		w.scanFrom = t
	}
}

// remove unstages a canceled event in O(1) by unlinking it.
func (w *timerWheel) remove(ev *event) {
	if ev.slotPrev != nil {
		ev.slotPrev.slotNext = ev.slotNext
	} else {
		w.slots[ev.slot&wheelMask] = ev.slotNext
	}
	if ev.slotNext != nil {
		ev.slotNext.slotPrev = ev.slotPrev
	}
	ev.slotNext, ev.slotPrev = nil, nil
	ev.slot = -1
	w.count--
}

// nextTick returns the earliest tick with staged events. Must only be called
// with count > 0. The scan resumes from a memoized lower bound, so repeated
// calls between flushes are O(1) amortized.
func (w *timerWheel) nextTick() int64 {
	t := w.scanFrom
	if t < w.baseTick {
		t = w.baseTick
	}
	for end := w.baseTick + wheelSlots; t < end; t++ {
		if w.slots[t&wheelMask] != nil {
			w.scanFrom = t
			return t
		}
	}
	panic("sim: timer wheel count desynchronized")
}

// take empties slot t (the earliest staged tick) and advances baseTick past
// it, returning the slot's list for the caller to re-seat. Each event still
// counts in count, and keeps its links, until the caller moves it.
func (w *timerWheel) take(t int64) *event {
	idx := t & wheelMask
	head := w.slots[idx]
	w.slots[idx] = nil
	w.baseTick = t + 1
	if w.scanFrom < w.baseTick {
		w.scanFrom = w.baseTick
	}
	return head
}

// stageFar stages ev, whose tick t lies beyond the near wheel's horizon, in
// the far level if the level's horizon reaches it, allocating the level on
// first use. It reports whether ev was staged.
func (s *Scheduler) stageFar(ev *event, t int64) bool {
	f := s.far
	if f == nil {
		f = &timerWheel{slotBase: wheelSlots}
		s.far = f
	}
	f.advance(int64(s.now / farTick))
	ft := t >> wheelBits
	if !f.holds(ft) {
		return false
	}
	f.insert(ev, ft)
	if start := time.Duration(ft) * farTick; start < s.farFrom {
		s.farFrom = start
	}
	return true
}

// settle empties every wheel slot that could precede (or tie with) the heap
// top, leaving the heap top as the globally earliest pending event. A near
// slot is flushed when its tick is <= the heap top's tick: a same-tick slot
// may hold an event that sorts before the heap top within the tick. A far
// slot cascades when its start is at or before the heap top; its events may
// land in near slots that then need flushing, hence the outer loop.
func (s *Scheduler) settle() {
	w := s.wheel
	for {
		if len(s.queue) > 0 {
			top := s.queue[0].when
			if top < s.farFrom && (w.count == 0 || int64(top/wheelTick) < w.nextTick()) {
				return // the usual case: nothing staged can precede the heap top
			}
		}
		if w.count > 0 {
			if wt := w.nextTick(); len(s.queue) == 0 || int64(s.queue[0].when/wheelTick) >= wt {
				s.flushSlot(wt)
				continue
			}
		}
		if !s.cascade() { // no near slot is due either
			return
		}
	}
}

// flushSlot migrates one near slot's events into the heap and advances
// baseTick past it, after which that tick is "inside the horizon's past"
// and new same-tick arms go straight to the heap.
func (s *Scheduler) flushSlot(wt int64) {
	w := s.wheel
	for ev := w.take(wt); ev != nil; {
		next := ev.slotNext
		ev.slotNext, ev.slotPrev = nil, nil
		ev.slot = -1
		w.count--
		s.push(ev)
		ev = next
	}
}

// cascade re-stages the far level's earliest slot once its start is at or
// before the heap top (or the heap is empty): each event goes to the near
// wheel if its tick is in the near horizon, else onto the heap. It refreshes
// farFrom, which Stop leaves as a lower bound, and reports whether it moved
// a slot.
func (s *Scheduler) cascade() bool {
	f := s.far
	if f == nil || f.count == 0 {
		s.farFrom = maxDuration
		return false
	}
	ft := f.nextTick()
	s.farFrom = time.Duration(ft) * farTick
	if len(s.queue) > 0 && s.queue[0].when < s.farFrom {
		return false
	}
	w := s.wheel
	w.advance(int64(s.now / wheelTick))
	for ev := f.take(ft); ev != nil; {
		next := ev.slotNext
		f.count--
		if t := int64(ev.when / wheelTick); w.holds(t) {
			w.insert(ev, t)
		} else {
			ev.slotNext, ev.slotPrev = nil, nil
			ev.slot = -1
			s.push(ev)
		}
		ev = next
	}
	s.farFrom = time.Duration(ft+1) * farTick
	return true
}
