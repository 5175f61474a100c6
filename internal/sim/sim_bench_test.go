package sim

import (
	"fmt"
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

// BenchmarkSchedulerTimeWait measures what pending long timers cost the
// events around them, modelled on stream-send's heap: twelve interleaved
// hop chains at 20–220 µs per hop, where one callback in four schedules
// nothing (its vacant root is closed by moving the heap's last node there
// and sifting it down) and one in four schedules two. It runs once with no
// long timers pending and once with 128 TIME-WAIT timers at 60 s, each
// re-armed when it fires so the count holds; the difference is what the
// ballast costs per event. BenchmarkSchedulerHopChain cannot show that:
// every hop there pushes, so no vacancy is ever closed. Delays and the
// callback's choice are drawn at random, as the traffic decides them in a
// simulation: in a fixed cycle the branch predictor learns the sift paths
// and the ballast's cost all but disappears.
func BenchmarkSchedulerTimeWait(b *testing.B) {
	for _, timers := range []int{0, 128} {
		b.Run(fmt.Sprintf("timers=%d", timers), func(b *testing.B) {
			s := New(1)
			var linger func(any)
			linger = func(any) { s.AfterArg(60*time.Second, "bench.timewait", linger, nil) }
			for i := 0; i < timers; i++ {
				s.AfterArg(60*time.Second+time.Duration(i)*60*time.Second/time.Duration(timers), "bench.timewait", linger, nil)
			}
			x, chains := uint64(88172645463325252), 12
			var hop func(any)
			hop = func(any) {
				x ^= x << 13 // xorshift64
				x ^= x >> 7
				x ^= x << 17
				d := time.Duration(20+x%201) * time.Microsecond
				choice := x >> 62 // 0: nothing, 1: two, else one
				if choice == 0 && chains <= 8 || choice == 1 && chains >= 16 {
					choice = 2 // hold the chain count near twelve
				}
				switch choice {
				case 0:
					chains--
				case 1:
					chains++
					s.AfterArg(d, "bench.hop", hop, nil)
					s.AfterArg(d/2+10*time.Microsecond, "bench.hop", hop, nil)
				default:
					s.AfterArg(d, "bench.hop", hop, nil)
				}
			}
			for i := 0; i < 12; i++ {
				s.AfterArg(time.Duration(i)*17*time.Microsecond, "bench.hop", hop, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
