package tcp

import (
	"testing"
	"time"
)

// TestWindowUpdateAfterRead: a receiver whose application drains a
// previously full buffer must advertise the opening so the sender resumes
// without waiting for probes.
func TestWindowUpdateAfterRead(t *testing.T) {
	p := newPair(t, Config{RecvBufSize: 8192})
	c, s := p.connect(t, 80)

	total := 32 * 1024
	data := make([]byte, total)
	sent := 0
	pump := func() {
		for sent < total {
			n, _ := c.Write(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	c.OnWritable(pump)
	pump()
	// Fill the receiver.
	p.runUntil(t, func() bool { return s.rcvBuf.Ready() == 8192 }, 10*time.Second)
	stalledAt := p.sched.Now()

	// The application reads everything; the window update alone must
	// revive the transfer promptly (well under the minimum RTO).
	buf := make([]byte, 8192)
	var got int
	drain := func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			got += n
		}
	}
	s.OnReadable(drain)
	drain()
	p.runUntil(t, func() bool { return got >= 16*1024 }, 10*time.Second)
	if wait := p.sched.Now() - stalledAt; wait > 150*time.Millisecond {
		t.Errorf("transfer revived after %v, want a prompt window update (< min RTO)", wait)
	}
}

// TestNagleCoalescesSmallWrites: with Nagle enabled, a burst of tiny writes
// while data is in flight produces far fewer segments than writes.
func TestNagleCoalescesSmallWrites(t *testing.T) {
	countSegments := func(disableNagle bool) int {
		p := newPair(t, Config{DisableNagle: disableNagle})
		c, s := p.connect(t, 80)
		buf := make([]byte, 4096)
		got := 0
		s.OnReadable(func() {
			for {
				n, _ := s.Read(buf)
				if n == 0 {
					return
				}
				got += n
			}
		})
		before := p.toBCount
		// 50 one-byte writes, spaced closer than the RTT.
		for i := range 50 {
			i := i
			p.sched.After(time.Duration(i)*50*time.Microsecond, "write", func() {
				_, _ = c.Write([]byte{byte(i)})
			})
		}
		p.runUntil(t, func() bool { return got == 50 }, 30*time.Second)
		return p.toBCount - before
	}
	withNagle := countSegments(false)
	withoutNagle := countSegments(true)
	if withNagle >= withoutNagle {
		t.Errorf("Nagle sent %d segments, nodelay sent %d; expected coalescing",
			withNagle, withoutNagle)
	}
	if withNagle > 20 {
		t.Errorf("Nagle sent %d segments for 50 tiny writes, expected strong coalescing", withNagle)
	}
}
