package sim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStreamKeyOrdering: same-instant events from different streams execute
// in stream-id order, and within a stream in FIFO order — regardless of
// scheduling order.
func TestStreamKeyOrdering(t *testing.T) {
	s := New(1)
	a := s.NewStream(5, 10)
	b := s.NewStream(3, 11)
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	a.Use()
	s.At(time.Millisecond, "a0", rec("a0"))
	s.At(time.Millisecond, "a1", rec("a1"))
	b.Use()
	s.At(time.Millisecond, "b0", rec("b0"))
	s.At(0, "b-early", rec("b-early"))
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"b-early", "b0", "a0", "a1"} // stream 3 before stream 5 at the tie
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestStreamInheritance: work scheduled inside an event inherits the
// event's stream, keeping causal chains in their lane.
func TestStreamInheritance(t *testing.T) {
	s := New(1)
	a := s.NewStream(1, 1)
	b := s.NewStream(2, 2)
	a.Use()
	s.At(time.Millisecond, "a", func() {
		s.After(time.Millisecond, "a-child", func() {})
	})
	b.Use()
	s.At(time.Millisecond, "b", func() {})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Executed() != 2 {
		t.Errorf("stream a executed %d events, want 2 (child inherited)", a.Executed())
	}
	if b.Executed() != 1 {
		t.Errorf("stream b executed %d events, want 1", b.Executed())
	}
}

func TestDuplicateStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate stream id did not panic")
		}
	}()
	s := New(1)
	s.NewStream(7, 1)
	s.NewStream(7, 2)
}

// TestMailboxPartitionIndependence is the engine-level differential test:
// the same two-cell ping-pong topology, once with both cells in one domain
// and once split across two, must produce identical per-stream digests.
func TestMailboxPartitionIndependence(t *testing.T) {
	const latency = 3 * time.Millisecond
	build := func(domains []*Scheduler, domOf [2]int) *ShardGroup {
		g := NewShardGroup(domains...)
		cellA := domains[domOf[0]].NewStream(1, 100)
		cellB := domains[domOf[1]].NewStream(2, 200)
		ab, err := g.NewMailbox(domains[domOf[0]], domains[domOf[1]], latency, 7)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := g.NewMailbox(domains[domOf[1]], domains[domOf[0]], latency, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Ping-pong: each delivery draws randomness and bounces back, plus
		// local per-cell chatter that interleaves at the same instants.
		var bounceA, bounceB func(any)
		bounceA = func(n any) { // runs in A's domain under ba's rx stream
			if n.(int) <= 0 {
				return
			}
			d := time.Duration(domains[domOf[0]].Rand().Intn(1000)) * time.Microsecond
			now := domains[domOf[0]].Now()
			ab.Post(now+latency+d, "pong", bounceB, n.(int)-1)
		}
		bounceB = func(n any) {
			if n.(int) <= 0 {
				return
			}
			d := time.Duration(domains[domOf[1]].Rand().Intn(1000)) * time.Microsecond
			now := domains[domOf[1]].Now()
			ba.Post(now+latency+d, "ping", bounceA, n.(int)-1)
		}
		cellA.Use()
		ab.Post(latency, "pong", bounceB, 40)
		var chatterA func()
		chatterA = func() {
			if domains[domOf[0]].Now() < 100*time.Millisecond {
				domains[domOf[0]].After(time.Duration(domains[domOf[0]].Rand().Intn(500))*time.Microsecond, "chatterA", chatterA)
			}
		}
		domains[domOf[0]].After(0, "chatterA", chatterA)
		cellB.Use()
		var chatterB func()
		chatterB = func() {
			if domains[domOf[1]].Now() < 100*time.Millisecond {
				domains[domOf[1]].After(time.Duration(domains[domOf[1]].Rand().Intn(700))*time.Microsecond, "chatterB", chatterB)
			}
		}
		domains[domOf[1]].After(0, "chatterB", chatterB)
		return g
	}

	run := func(split bool) []StreamDigest {
		var domains []*Scheduler
		domOf := [2]int{0, 0}
		if split {
			domains = []*Scheduler{New(1), New(1)}
			domOf = [2]int{0, 1}
		} else {
			domains = []*Scheduler{New(1)}
		}
		for _, d := range domains {
			d.EnableDigest()
		}
		g := build(domains, domOf)
		if err := g.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		return g.StreamDigests()
	}

	seq := run(false)
	par := run(true)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("digests diverge:\n 1 domain: %+v\n 2 domains: %+v", seq, par)
	}
	var total int64
	for _, d := range seq {
		total += d.Executed
	}
	if total == 0 {
		t.Fatal("no events executed")
	}
}

// TestShardGroupRunUntilHalfOpen: events exactly at the target wait for a
// later call.
func TestShardGroupRunUntilHalfOpen(t *testing.T) {
	d := New(1)
	g := NewShardGroup(d)
	fired := false
	d.At(10*time.Millisecond, "edge", func() { fired = true })
	if err := g.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event at the window edge fired inside the half-open window")
	}
	if g.Now() != 10*time.Millisecond {
		t.Fatalf("now %v, want 10ms", g.Now())
	}
	if err := g.RunUntil(10*time.Millisecond + time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event never fired")
	}
}

func TestMailboxZeroLatencyCrossDomainRejected(t *testing.T) {
	a, b := New(1), New(2)
	g := NewShardGroup(a, b)
	if _, err := g.NewMailbox(a, b, 0, 1); err == nil {
		t.Fatal("zero-latency cross-domain mailbox accepted")
	} else if !strings.Contains(err.Error(), "latency") {
		t.Errorf("unhelpful error: %v", err)
	}
	// Same-domain tolerates zero (sequential fallback).
	if _, err := g.NewMailbox(a, a, 0, 1); err != nil {
		t.Fatalf("same-domain zero-latency mailbox rejected: %v", err)
	}
}

// TestPostLookaheadViolationPanics: a cross-domain post earlier than the
// current window's end is a contract violation and must fail loudly.
func TestPostLookaheadViolationPanics(t *testing.T) {
	a, b := New(1), New(2)
	g := NewShardGroup(a, b)
	g.SetWorkers(1) // serial windows so the panic surfaces on this goroutine
	st := a.NewStream(1, 1)
	mb, err := g.NewMailbox(a, b, 10*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Use()
	a.At(time.Millisecond, "bad-post", func() {
		// Claims 10ms lookahead but posts 1ms out.
		mb.Post(a.Now()+time.Millisecond, "early", func(any) {}, nil)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("undershooting the declared lookahead did not panic")
		}
	}()
	_ = g.RunUntil(time.Second)
}

// TestShardWindowsReachFarStagedTimer: a domain whose only pending event is
// a far-staged 60 s timer bounds the window loop. Ignoring it would let one
// window run past the timer, whose cross-domain post then lands inside its
// own window and panics; a bound that never moved would stall the loop at
// one lookahead per window for a minute of virtual time.
func TestShardWindowsReachFarStagedTimer(t *testing.T) {
	a, b := New(1), New(2)
	g := NewShardGroup(a, b)
	g.SetWorkers(1) // serial windows so a lookahead panic surfaces here
	mb, err := g.NewMailbox(a, b, time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.NewStream(1, 1).Use()
	var got time.Duration
	tm := a.At(60*time.Second, "timewait", func() {
		mb.Post(a.Now()+time.Millisecond, "deliver", func(any) { got = b.Now() }, nil)
	})
	if lv := level(tm); lv != "far" {
		t.Fatalf("60 s timer staged in %s, want far", lv)
	}
	if err := g.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if want := 60*time.Second + time.Millisecond; got != want {
		t.Fatalf("delivery ran at %v, want %v", got, want)
	}
	// Far slot start, the timer, the delivery, then straight to the end.
	if w := g.Windows(); w > 4 {
		t.Fatalf("%d windows for three events, want at most 4", w)
	}
}

// TestInjectExplicitKey: injected events order against local events by their
// explicit (when, stream, seq) key.
func TestInjectExplicitKey(t *testing.T) {
	s := New(1)
	local := s.NewStream(9, 1)
	rx := s.NewStream(4, 2)
	var got []string
	local.Use()
	s.At(time.Millisecond, "local", func() { got = append(got, "local") })
	// Stream 4 sorts before stream 9 at the same instant.
	s.Inject(time.Millisecond, 4, 0, rx, "injected", func(any) { got = append(got, "injected") }, nil)
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"injected", "local"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}
