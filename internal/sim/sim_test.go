package sim

import (
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Millisecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Millisecond, "b", func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := range 10 {
		i := i
		s.At(time.Millisecond, "e", func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestStopCancelsEvent(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.After(time.Millisecond, "x", func() { fired = true })
	if !ev.Pending() {
		t.Error("event should be pending")
	}
	if !ev.Stop() {
		t.Error("Stop should report true for a pending event")
	}
	if ev.Stop() {
		t.Error("second Stop should report false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("stopped event fired")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New(1)
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, "r", recur)
		}
	}
	s.After(time.Millisecond, "r", recur)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now() = %v, want 5ms", s.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 5, 9, 15, 20} {
		d := d * time.Millisecond
		s.At(d, "e", func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %v, want the three events <= 10ms", fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now() = %v, want exactly the deadline", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("remaining events did not run: %v", fired)
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(10*time.Millisecond, "outer", func() {
		s.At(time.Millisecond, "past", func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("past-scheduled event ran at %v, want now (10ms)", at)
	}
}

func TestEventLimitDetectsLivelock(t *testing.T) {
	s := New(1)
	s.limit = 100
	var spin func()
	spin = func() { s.After(time.Microsecond, "spin", spin) }
	spin()
	err := s.Run()
	if err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var vals []int64
		for range 20 {
			s.After(time.Duration(s.Rand().Int63n(1000))*time.Microsecond, "e", func() {
				vals = append(vals, s.Rand().Int63())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step on empty queue should report false")
	}
	s.After(0, "e", func() {})
	if !s.Step() {
		t.Error("Step should execute the queued event")
	}
}
