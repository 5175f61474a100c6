package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduler measures the cost of the scheduler's hot cycle as TCP
// exercises it: schedule a timer, cancel it (the common case — most TCP
// timers are stopped before they fire), schedule a replacement, and fire
// events interleaved at varying horizons. allocs/op is the headline number:
// timer churn is the simulator's dominant allocator.
func BenchmarkScheduler(b *testing.B) {
	s := New(1)
	var spin func()
	n := 0
	spin = func() {
		// Each fired event re-arms itself and churns a canceled timer,
		// mimicking a retransmission timer reset per segment.
		t := s.After(50*time.Microsecond, "bench.rexmt", func() {})
		t.Stop()
		n++
		s.After(time.Duration(1+n%7)*time.Microsecond, "bench.next", spin)
	}
	spin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	_ = n
}

// BenchmarkSchedulerMixed measures a deeper queue with out-of-order
// insertion and partial cancellation, the pattern of many concurrent
// connections. The callback is hoisted so the numbers isolate the
// scheduler's own heap and pooling costs.
func BenchmarkSchedulerMixed(b *testing.B) {
	s := New(42)
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 512; j++ {
			d := time.Duration(s.Rand().Int63n(int64(time.Millisecond)))
			t := s.After(d, "bench.mixed", fn)
			if j%3 == 0 {
				t.Stop()
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerHopChain measures the packet-hop pattern: each event
// schedules its successor 1-3 us ahead — the new minimum — while 64 timers
// beyond the wheel's horizon sit in the heap behind it. The fired event's
// root slot takes the successor without a sift.
func BenchmarkSchedulerHopChain(b *testing.B) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.After(time.Hour+time.Duration(i)*time.Microsecond, "bench.background", func() {})
	}
	n := 0
	var hop func(any)
	hop = func(any) {
		n++
		s.AfterArg(time.Duration(1+n%3)*time.Microsecond, "bench.hop", hop, nil)
	}
	hop(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
