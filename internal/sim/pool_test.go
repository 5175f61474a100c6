package sim

import (
	"testing"
	"time"
)

// TestStopAfterRecycleAliasing is the regression test for the event pool's
// generation guard: a Timer handle whose event has fired and been recycled
// into a new, unrelated timer must not be able to stop that new timer.
func TestStopAfterRecycleAliasing(t *testing.T) {
	s := New(1)
	stale := s.After(time.Millisecond, "old", func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	fresh := s.After(time.Millisecond, "new", func() { fired = true })
	if stale.ev != fresh.ev {
		t.Fatalf("pool did not recycle the fired event; test cannot observe aliasing")
	}
	if stale.Stop() {
		t.Error("Stop on a fired, recycled timer reported true")
	}
	if stale.Pending() {
		t.Error("stale handle reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("stale Stop corrupted the recycled event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// TestStoppedEventsRecycled verifies that Stop unlinks the event from the
// queue and recycles it immediately: repeated arm/cancel cycles — the
// retransmission-timer pattern — reuse a single pooled event instead of
// stacking dead entries in the heap until their deadlines pass.
func TestStoppedEventsRecycled(t *testing.T) {
	s := New(1)
	for i := 0; i < 8; i++ {
		s.After(time.Duration(i)*time.Millisecond, "x", func() {}).Stop()
	}
	if got := s.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after stopping all, want 0", got)
	}
	if len(s.queue) != 0 {
		t.Errorf("queue holds %d dead events, want 0 (eager removal)", len(s.queue))
	}
	if s.free.Len() != 1 {
		t.Errorf("free list has %d events, want the single event all 8 cycles reused", s.free.Len())
	}
	if s.Step() {
		t.Error("Step fired a stopped event")
	}
}

// TestStopMiddleKeepsOrder removes events from the middle of a populated
// heap and checks the survivors still fire in (when, seq) order.
func TestStopMiddleKeepsOrder(t *testing.T) {
	s := New(1)
	const n = 32
	var fired []int
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		// Deliberately scrambled deadlines exercise both sift directions
		// when removeAt re-seats the heap's last element.
		when := time.Duration((i*7)%n+1) * time.Millisecond
		timers[i] = s.After(when, "x", func() { fired = append(fired, (i*7)%n+1) })
	}
	for i := 0; i < n; i += 3 {
		timers[i].Stop()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(fired); j++ {
		if fired[j-1] > fired[j] {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
	want := n - (n+2)/3
	if len(fired) != want {
		t.Fatalf("%d events fired, want %d", len(fired), want)
	}
}

func TestPendingEventsCounter(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, "x", func() {})
	}
	if got := s.PendingEvents(); got != 10 {
		t.Fatalf("PendingEvents = %d, want 10", got)
	}
	timers[3].Stop()
	timers[7].Stop()
	timers[7].Stop() // double-stop must not double-decrement
	if got := s.PendingEvents(); got != 8 {
		t.Fatalf("PendingEvents = %d after two stops, want 8", got)
	}
	s.Step()
	if got := s.PendingEvents(); got != 7 {
		t.Fatalf("PendingEvents = %d after one fire, want 7", got)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents = %d after Run, want 0", got)
	}
}

// TestTimerRescheduleZeroAlloc is the satellite guard: arming and canceling
// a timer — the per-segment retransmission-timer pattern — must not allocate
// once the pool is warm.
func TestTimerRescheduleZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the free list
		s.After(time.Microsecond, "warm", fn).Stop()
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Microsecond, "x", fn)
		tm.Stop()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("timer reschedule allocates %.1f per event, want 0", allocs)
	}
}

func TestAtArgDeliversArgument(t *testing.T) {
	s := New(1)
	type box struct{ n int }
	bx := &box{}
	s.AtArg(time.Millisecond, "arg", func(v any) { v.(*box).n = 42 }, bx)
	s.AfterArg(2*time.Millisecond, "arg2", func(v any) { v.(*box).n++ }, bx)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if bx.n != 43 {
		t.Errorf("arg events ran incorrectly: n = %d, want 43", bx.n)
	}
}
