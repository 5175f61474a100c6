package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one pending event of the reference: its full ordering key and
// the test's name for it.
type refEvent struct {
	when time.Duration
	sid  StreamID
	seq  uint64
	id   int
}

// orderRef is the order oracle: the pending events in a slice kept sorted by
// (when, stream, seq), and the per-stream FIFO counters that allocate keys.
// It knows nothing of heaps, wheels or vacancies.
type orderRef struct {
	events []refEvent
	seq    [2]uint64 // streams 0 and 1 allocate here; wire keys come from the test
	cur    StreamID
}

func (r *orderRef) add(e refEvent) {
	i := sort.Search(len(r.events), func(i int) bool {
		x := r.events[i]
		if x.when != e.when {
			return x.when > e.when
		}
		if x.sid != e.sid {
			return x.sid > e.sid
		}
		return x.seq > e.seq
	})
	r.events = append(r.events, refEvent{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = e
}

func (r *orderRef) find(id int) int {
	for i, e := range r.events {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (r *orderRef) stop(id int) bool {
	i := r.find(id)
	if i >= 0 {
		r.events = append(r.events[:i], r.events[i+1:]...)
	}
	return i >= 0
}

const (
	wireStream = 2 // key stream of injected events
	oracleIDs  = 1500
)

// oracleRun drives one scheduler and the reference through one random
// programme. Every random draw happens in execution order, so two runs of
// one seed issue the same programme as long as they fire the same events.
type oracleRun struct {
	t       *testing.T
	s       *Scheduler
	rx      *Stream
	ref     orderRef
	rng     *rand.Rand
	timers  []Timer // by id; the zero Timer for injected events
	wireSeq uint64
	fired   int
}

func (o *oracleRun) horizon() time.Duration {
	now := o.s.Now()
	switch o.rng.Intn(8) {
	case 0:
		return now - time.Microsecond // clamped to now
	case 1:
		return now
	case 2, 3:
		return now + time.Duration(o.rng.Intn(5000)) // a packet hop: heap
	case 4:
		return now + time.Duration(o.rng.Intn(int(3*time.Millisecond))) // around the staging threshold
	case 5:
		return now + time.Duration(o.rng.Intn(int(900*time.Millisecond))) // near wheel
	case 6:
		return now + time.Second + time.Duration(o.rng.Intn(int(2*time.Second))) // far level, soon cascaded
	}
	return now + time.Duration(o.rng.Int63n(int64(2*farTick*wheelSlots))) // either level or past the far horizon
}

// arm schedules id (a new one when id == len(timers)) through one of the
// three arming calls, or injects it under a wire key.
func (o *oracleRun) arm(id int, when time.Duration) {
	if id == len(o.timers) {
		o.timers = append(o.timers, Timer{})
	}
	now := o.s.Now()
	call := o.rng.Intn(4)
	if call == 3 && when >= now {
		o.s.Inject(when, wireStream, o.wireSeq, o.rx, "inject", o.fireArg, id)
		o.ref.add(refEvent{when, wireStream, o.wireSeq, id})
		o.wireSeq++
		o.timers[id] = Timer{}
		return
	}
	switch call {
	case 0:
		o.timers[id] = o.s.At(when, "at", func() { o.fire(id) })
	case 1:
		o.timers[id] = o.s.After(when-now, "after", func() { o.fire(id) })
	default:
		o.timers[id] = o.s.AtArg(when, "atarg", o.fireArg, id)
	}
	o.ref.add(refEvent{max(when, now), o.ref.cur, o.ref.seq[o.ref.cur], id})
	o.ref.seq[o.ref.cur]++
}

// stop cancels id on both sides and compares the answers.
func (o *oracleRun) stop(id int) {
	if got, want := o.timers[id].Stop(), o.ref.stop(id); got != want {
		o.t.Fatalf("Stop(%d) = %v, reference %v", id, got, want)
	} else if !got {
		return
	}
	if o.timers[id].Pending() || o.timers[id].Stop() {
		o.t.Fatalf("timer %d still pending after Stop", id)
	}
}

// ops issues n random operations: arm a new event, stop one, re-arm one.
func (o *oracleRun) ops(n int) {
	for ; n > 0 && len(o.timers) < oracleIDs; n-- {
		switch k := o.rng.Intn(6); {
		case k < 3 || len(o.timers) == 0:
			o.arm(len(o.timers), o.horizon())
		case k < 5:
			if id := o.rng.Intn(len(o.timers)); o.timers[id] != (Timer{}) {
				o.stop(id)
			}
		default:
			if id := o.rng.Intn(len(o.timers)); o.timers[id] != (Timer{}) {
				o.stop(id)
				o.arm(id, o.horizon())
			}
		}
	}
}

func (o *oracleRun) fireArg(v any) { o.fire(v.(int)) }

// fire is every event's callback: the reference must have expected exactly
// this event now; then the callback does what callbacks do.
func (o *oracleRun) fire(id int) {
	if len(o.ref.events) == 0 || o.ref.events[0].id != id {
		o.t.Fatalf("event %d fired at %v after %d others; reference expected %+v", id, o.s.Now(), o.fired, o.ref.events[:min(1, len(o.ref.events))])
	}
	e := o.ref.events[0]
	o.ref.events = o.ref.events[1:]
	o.ref.cur = e.sid
	if e.sid == wireStream {
		o.ref.cur = 1 // injected events execute under rx
	}
	if o.s.Now() != e.when {
		o.t.Fatalf("event %d fired at %v, armed for %v", id, o.s.Now(), e.when)
	}
	if o.timers[id].Pending() {
		o.t.Fatalf("event %d pending inside its own callback", id)
	}
	o.fired++

	switch o.rng.Intn(8) {
	case 0, 1: // schedules nothing: Step closes the vacancy
	case 2, 3: // a packet hop: one event, earlier than everything pending
		if len(o.timers) < oracleIDs {
			o.arm(len(o.timers), o.s.Now()+time.Duration(o.rng.Intn(3)))
		}
	case 4: // several events: the first fills the root, the rest sift up
		o.ops(2 + o.rng.Intn(4))
	case 5: // stop the heap's last node while the root is vacant
		if n := len(o.s.queue); o.s.vacant && n > 1 {
			last := o.s.queue[n-1].ev
			for id, tm := range o.timers {
				if tm.ev == last && tm.gen == last.gen {
					o.stop(id)
					break
				}
			}
		}
		o.ops(o.rng.Intn(2))
	case 6: // stop something, then hop
		o.ops(1)
		if len(o.timers) < oracleIDs {
			o.arm(len(o.timers), o.s.Now()+time.Duration(o.rng.Intn(2000)))
		}
	case 7:
		o.ops(1)
	}
	o.check()
}

// check compares the scheduler's answers with the reference's.
func (o *oracleRun) check() {
	if got := o.s.PendingEvents(); got != len(o.ref.events) {
		o.t.Fatalf("PendingEvents = %d, reference holds %d", got, len(o.ref.events))
	}
	for n := 0; n < 3 && len(o.timers) > 0; n++ {
		id := o.rng.Intn(len(o.timers))
		if o.timers[id] == (Timer{}) {
			continue
		}
		var when time.Duration
		i := o.ref.find(id)
		if i >= 0 {
			when = o.ref.events[i].when
		}
		if o.timers[id].Pending() != (i >= 0) || o.timers[id].When() != when {
			o.t.Fatalf("timer %d: Pending %v When %v, reference pending %v when %v",
				id, o.timers[id].Pending(), o.timers[id].When(), i >= 0, when)
		}
	}
}

// outside is check for the instants control is outside every callback: the
// heap's root is filled then, which is what settle, RunUntil and the shard
// window loop rely on when they read queue[0].
func (o *oracleRun) outside() {
	o.check()
	if o.s.vacant {
		o.t.Fatal("root vacant outside a callback")
	}
	if len(o.ref.events) > 0 {
		o.s.settle()
		if got, want := o.s.queue[0].when, o.ref.events[0].when; got != want {
			o.t.Fatalf("settled heap root at %v, reference minimum at %v", got, want)
		}
	}
}

// runOracle runs seed's programme. Every tenth seed begins with a burst,
// whose idle events are shed during the programme.
func runOracle(t *testing.T, seed int64) int {
	s := New(seed)
	bursts := seed%10 == 0
	if bursts {
		burst(t, s, 4_000, 1+int(seed*7%300))
	}
	o := &oracleRun{t: t, s: s, rx: s.NewStream(1, seed), rng: rand.New(rand.NewSource(seed))}
	for len(o.timers) < oracleIDs/2 {
		o.ops(1 + o.rng.Intn(8))
		o.outside()
		switch o.rng.Intn(3) {
		case 0:
			for n := o.rng.Intn(6); n > 0 && s.Step(); n-- {
				o.outside()
			}
		case 1:
			until := o.horizon()
			if err := s.RunUntil(until); err != nil {
				t.Fatal(err)
			}
			if until > s.Now() || (len(o.ref.events) > 0 && o.ref.events[0].when <= until) {
				t.Fatalf("RunUntil(%v) stopped at %v with reference minimum %+v", until, s.Now(), o.ref.events[:min(1, len(o.ref.events))])
			}
			o.outside()
		}
	}
	for s.Step() {
		o.outside()
	}
	if len(o.ref.events) != 0 {
		t.Fatalf("scheduler drained with %d events left in the reference", len(o.ref.events))
	}
	if bursts && s.free.Len() >= 4_000 {
		t.Fatalf("seed %d: %d events on the free list: the burst was not shed during the programme", seed, s.free.Len())
	}
	return o.fired
}

// TestSchedulerAgainstOrderOracle runs random programmes of At / After /
// AtArg / Inject / Stop / re-arm, issued from outside the loop and from
// inside callbacks, against the sorted-slice reference: events fire in the
// reference's order, Pending / When / PendingEvents agree throughout, and
// the heap's root is filled whenever control is outside a callback. The
// callbacks cover what the vacant root must survive: nothing scheduled, one
// event earlier than everything, several, and a Stop of the heap's last node
// before anything has filled the root.
func TestSchedulerAgainstOrderOracle(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 150; seed++ {
		total += runOracle(t, seed)
	}
	t.Logf("%d events fired in reference order", total)
}
