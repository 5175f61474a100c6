package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestFreeListShedsBurst: after a 40 000-item burst, a list that only ever
// lends 64 at a time ends three periods later holding about 64 items in an
// array about that size, not the burst.
func TestFreeListShedsBurst(t *testing.T) {
	var f FreeList[int]
	for range 40_000 {
		f.Put(new(int))
	}
	var lent []*int
	for f.puts < 40_000+3*shedPeriod {
		for range 64 {
			lent = append(lent, f.Get())
		}
		for _, x := range lent {
			f.Put(x)
		}
		lent = lent[:0]
	}
	t.Logf("after the burst and three periods: Len %d, capacity %d", f.Len(), cap(f.items))
	if f.Len() > 64 || cap(f.items) > 128 {
		t.Errorf("Len %d, capacity %d: want the oscillation's 64, not the burst", f.Len(), cap(f.items))
	}
}

// TestFreeListKeepsWhatItsPeriodUsed drives a list through eight periods of
// random Gets and Puts around a level that moves each period, against a
// model: a stack of items, each marked if it was put in the current period.
// Every Get must return the model's top (LIFO), and at each shed exactly the
// unmarked items go: an item taken within the period and put back is never
// dropped, and one no Get reached all period always is.
func TestFreeListKeepsWhatItsPeriodUsed(t *testing.T) {
	type entry struct {
		x    *int
		used bool // put since the period began
	}
	rng := rand.New(rand.NewSource(1))
	var f FreeList[int]
	var model []entry
	var out []*int // items the caller holds
	kept, dropped := 0, 0
	for period := 0; period < 8; period++ {
		level, amp := rng.Intn(3000), 1+rng.Intn(300)
		for shed := false; !shed; {
			if n := len(model); n > level+amp || (n >= level-amp && rng.Intn(2) == 0) {
				x := f.Get()
				if n == 0 {
					if x != nil {
						t.Fatal("Get on an empty list returned an item")
					}
					continue
				}
				if x != model[n-1].x {
					t.Fatalf("period %d: Get returned an item other than the last one put", period)
				}
				model, out = model[:n-1], append(out, x)
				continue
			}
			x := new(int)
			if n := len(out); n > 0 {
				x, out = out[n-1], out[:n-1]
			}
			f.Put(x)
			model = append(model, entry{x, true})
			if shed = f.puts%shedPeriod == 0; !shed {
				continue
			}
			next := model[:0]
			for _, e := range model {
				if e.used {
					next = append(next, entry{e.x, false})
				} else {
					dropped++
				}
			}
			model = next
			kept += len(model)
			if f.Len() != len(model) {
				t.Fatalf("period %d: the list kept %d items, want the %d put within the period", period, f.Len(), len(model))
			}
			for i, e := range model {
				if f.items[i] != e.x {
					t.Fatalf("period %d: item %d after the shed is not the model's", period, i)
				}
			}
			if cap(f.items) > max(2*f.Len(), 8) {
				t.Fatalf("period %d: %d items in an array of %d", period, f.Len(), cap(f.items))
			}
		}
	}
	t.Logf("%d items kept and %d dropped across eight sheds", kept, dropped)
	if kept == 0 || dropped == 0 {
		t.Fatal("the sheds never both kept and dropped items; the test does not exercise the mark")
	}
}

// TestFreeListLIFOZeroValue: the zero value is an empty list ready for use,
// and Get returns items in the reverse of the order they were put.
func TestFreeListLIFOZeroValue(t *testing.T) {
	var f FreeList[int]
	if f.Get() != nil || f.Len() != 0 {
		t.Fatal("the zero FreeList is not empty")
	}
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if f.Len() != 2 || f.Get() != b || f.Get() != a || f.Get() != nil {
		t.Fatal("Get did not return the items last in, first out")
	}
}

// TestShedEventTimerStaysStale: a fired event that sits at the bottom of the
// scheduler's free list while a hop chain recycles another above it is shed
// within two periods, and its Timer handle still reads as fired: not
// pending, no deadline, nothing to stop.
func TestShedEventTimerStaysStale(t *testing.T) {
	s := New(1)
	stale := s.After(time.Millisecond, "stale", func() {})
	hops := 0
	var hop func()
	hop = func() {
		if hops++; hops < 3*shedPeriod {
			s.After(time.Microsecond, "hop", hop)
		}
	}
	s.After(2*time.Millisecond, "hop", hop)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.free.items {
		if ev == stale.ev {
			t.Fatal("the fired event is still on the free list after three periods unused")
		}
	}
	if stale.Pending() || stale.When() != 0 || stale.Stop() {
		t.Errorf("handle to a shed event: Pending %v, When %v; want false, 0 and Stop false", stale.Pending(), stale.When())
	}
}

// burst runs n events scheduled at the current instant, then arms and stops
// one timer until the event list is k Puts short of its second shed: the
// caller's draws begin with the n events idle on the list and see them shed
// k Puts in.
func burst(t *testing.T, s *Scheduler, n, k int) {
	t.Helper()
	for range n {
		s.After(0, "burst", func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for s.free.puts < 2*shedPeriod-k {
		s.After(time.Second, "burst", func() {}).Stop()
	}
}
