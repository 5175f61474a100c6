package sim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// level names where a pending timer's event waits.
func level(tm Timer) string {
	switch slot := tm.ev.slot; {
	case slot >= wheelSlots:
		return "far"
	case slot >= 0:
		return "near"
	case tm.ev.index >= 0:
		return "heap"
	}
	return "none"
}

// TestWheelHorizonBoundary arms timers straddling both levels' horizons:
// time zero and the current tick (heap), the near wheel's last tick, the
// first tick past it (far level), 60 s (TIME-WAIT), the far level's last
// tick, and the first tick past that (heap). Each must be staged where the
// rules say and fire in deadline order, and Pending/When must hold for
// every timer still waiting at every deadline on the way — across each
// cascade and flush.
func TestWheelHorizonBoundary(t *testing.T) {
	s := New(1)
	near := wheelTick * wheelSlots // first tick past the near wheel
	far := farTick * wheelSlots    // first tick past the far level
	cases := []struct {
		d     time.Duration
		level string
	}{
		{0, "heap"},                    // current tick
		{wheelTick - 1, "heap"},        // near-term
		{near - 1, "near"},             // last near tick
		{near, "far"},                  // first tick past the near horizon
		{near + wheelTick, "far"},      // beyond it
		{10 * near, "far"},             // ten near rotations
		{60 * time.Second, "far"},      // TIME-WAIT
		{far - wheelTick, "far"},       // last far tick
		{far - 1, "far"},               // its last nanosecond
		{far, "heap"},                  // first tick past the far horizon
		{far + 10*time.Second, "heap"}, // beyond it
		{maxDuration, "heap"},          // the end of time
	}
	var fired []time.Duration
	timers := make([]Timer, len(cases))
	for i, c := range cases {
		d := c.d
		timers[i] = s.At(d, "t", func() { fired = append(fired, d) })
		if got := level(timers[i]); got != c.level {
			t.Fatalf("timer %d (%v) staged in %s, want %s", i, d, got, c.level)
		}
	}
	for i, c := range cases {
		for j := i; j < len(cases); j++ {
			if !timers[j].Pending() || timers[j].When() != cases[j].d {
				t.Fatalf("before %v: timer %d Pending %v When %v, want pending at %v",
					c.d, j, timers[j].Pending(), timers[j].When(), cases[j].d)
			}
		}
		if err := s.RunUntil(c.d); err != nil {
			t.Fatal(err)
		}
		if len(fired) != i+1 || fired[i] != c.d || timers[i].Pending() {
			t.Fatalf("by %v fired %v, want timer %d last", c.d, fired, i)
		}
	}
	if s.PendingEvents() != 0 {
		t.Fatalf("PendingEvents = %d after drain", s.PendingEvents())
	}
}

// TestWheelHorizonAdvances checks that once the wheel's base has moved, a
// slot index is reusable for a tick one full rotation later and events still
// fire at the right times.
func TestWheelHorizonAdvances(t *testing.T) {
	s := New(2)
	var fired []time.Duration
	note := func(d time.Duration) func() { return func() { fired = append(fired, d) } }
	first := 5 * wheelTick
	s.At(first, "a", note(first))
	if err := s.RunUntil(first); err != nil {
		t.Fatal(err)
	}
	// Same slot index (tick 5 + wheelSlots), now in-horizon again.
	second := first + wheelTick*wheelSlots
	s.At(second, "b", note(second))
	third := first + 2*wheelTick
	s.At(third, "c", note(third))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{first, third, second}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}
}

// TestWheelCancelRearmRecycles exercises the retransmission-timer pattern —
// arm, cancel, re-arm, thousands of times — and checks that staged events
// recycle through the scheduler's pool: the pending count stays at one and
// stale handles remain safe no-ops.
func TestWheelCancelRearmRecycles(t *testing.T) {
	s := New(3)
	var tm Timer
	var stale []Timer
	for i := 0; i < 5000; i++ {
		if i > 0 {
			if !tm.Stop() {
				t.Fatalf("Stop %d reported not pending", i)
			}
			stale = append(stale, tm)
		}
		tm = s.After(200*time.Millisecond, "rexmt", func() {})
		if got := s.PendingEvents(); got != 1 {
			t.Fatalf("PendingEvents = %d after re-arm %d, want 1", got, i)
		}
	}
	// Every stale handle's event has been recycled under a new generation.
	for i, old := range stale {
		if old.Pending() {
			t.Fatalf("stale handle %d still pending", i)
		}
		if old.Stop() {
			t.Fatalf("stale handle %d Stop returned true", i)
		}
	}
	// Perfect recycling: every arm reuses the single pooled event object.
	for i, old := range stale {
		if old.ev != tm.ev {
			t.Fatalf("re-arm %d allocated a new event instead of recycling", i)
		}
	}
	if !tm.Stop() {
		t.Fatal("final Stop failed")
	}
	if s.PendingEvents() != 0 {
		t.Fatalf("PendingEvents = %d after final Stop", s.PendingEvents())
	}
}

// TestWheelSameTickOrdering arms many events inside one wheel tick in a
// scrambled deadline order, plus ties at the same instant, and requires
// execution in (when, arm-sequence) order.
func TestWheelSameTickOrdering(t *testing.T) {
	const n = 64
	s := New(4)
	rng := rand.New(rand.NewSource(99))
	var fired []int
	at := make([]time.Duration, n)
	base := wheelTick * 3
	for i := range n {
		// All deadlines inside tick 3; every fourth is a tie at base.
		at[i] = base + time.Duration(rng.Intn(int(wheelTick)))
		if i%4 == 0 {
			at[i] = base
		}
		s.At(at[i], "e", func() { fired = append(fired, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	inOrder := func(x, y int) int { return cmp.Or(cmp.Compare(at[x], at[y]), cmp.Compare(x, y)) }
	if len(fired) != n || !slices.IsSortedFunc(fired, inOrder) {
		t.Fatalf("same-tick order %v, want (when, arm order)", fired)
	}
}

// TestWheelPastDeadlineClamped verifies that arming in the past (clamped to
// now) lands in the heap, not a stale wheel slot, and runs after events
// already queued for the current instant.
func TestWheelPastDeadlineClamped(t *testing.T) {
	s := New(8)
	var fired []string
	s.At(3*wheelTick, "a", func() {
		fired = append(fired, "a")
		s.At(0, "late", func() { fired = append(fired, "late") })
		s.At(s.Now(), "now", func() { fired = append(fired, "now") })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "late", "now"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}
}

// TestFarTimersStayOutOfTheHeap is TIME-WAIT beside traffic: 128 timers at
// 60 s (sixteen instants, eight ties each) next to three heap-resident hop
// chains. The heap must hold only the chains' events until the timers'
// tick comes due — far-staged until their far slot's start, near-staged
// after its cascade — and the timers must then fire in key order.
func TestFarTimersStayOutOfTheHeap(t *testing.T) {
	s := New(1)
	const chains, timers = 3, 128
	due := 60 * time.Second
	var hop func(any)
	hop = func(any) {
		if s.Now() < due+time.Second {
			s.AfterArg(700*time.Microsecond, "hop", hop, nil)
		}
	}
	for i := 0; i < chains; i++ {
		s.AfterArg(time.Duration(i)*100*time.Microsecond, "hop", hop, nil)
	}
	var fired, want []int
	tms := make([]Timer, timers)
	whens := make([]time.Duration, timers)
	for i := range tms {
		i := i
		whens[i] = due + time.Duration(i*37%16)*50*time.Microsecond
		tms[i] = s.At(whens[i], "timewait", func() { fired = append(fired, i) })
		want = append(want, i)
	}
	sort.SliceStable(want, func(a, b int) bool { return whens[want[a]] < whens[want[b]] })

	cascade := due / farTick * farTick // start of the timers' far slot
	for steps := 0; ; steps++ {
		s.settle()
		if len(s.queue) == 0 {
			break
		}
		if top := s.queue[0].when; top < due {
			if len(s.queue) != chains {
				t.Fatalf("heap holds %d events at %v, want the %d chains'", len(s.queue), top, chains)
			}
			lv := "far"
			if top >= cascade {
				lv = "near"
			}
			if steps%256 == 0 || top >= cascade {
				for i, tm := range tms {
					if got := level(tm); got != lv {
						t.Fatalf("timer %d in %s at %v, want %s", i, got, top, lv)
					}
				}
			}
		}
		s.fire()
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("timers fired in order %v, want key order %v", fired, want)
	}
}

// TestFarSlotStartTiesHeapTop: a far-staged event exactly at its slot's
// start ties with a heap event at the same instant and a larger key. The
// slot must cascade when its start is at, not only before, the heap top,
// or the heap event fires first.
func TestFarSlotStartTiesHeapTop(t *testing.T) {
	s := New(1)
	rx := s.NewStream(1, 1)
	at := 2 * farTick
	var got []string
	if tm := s.At(at, "far", func() { got = append(got, "far") }); level(tm) != "far" {
		t.Fatalf("timer at a far slot's start staged in %s", level(tm))
	}
	s.Inject(at, 1, 0, rx, "heap", func(any) { got = append(got, "heap") }, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"far", "heap"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}
