package tcp

import (
	"bytes"
	"io"
	"math/rand"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"testing"
	"time"
)

// Connections whose sequence numbers cross the 2^32 boundary mid-stream —
// the classic source of modular-arithmetic bugs in every layer that touches
// sequence numbers.

func issNear(v uint32) func(rng *rand.Rand) Seq {
	return func(*rand.Rand) Seq { return Seq(v) }
}

func transferAcross(t *testing.T, cfg Config, total int) {
	t.Helper()
	p := newPair(t, cfg)
	c, s := p.connect(t, 80)

	var got []byte
	buf := make([]byte, 65536)
	s.OnReadable(func() {
		for {
			n, err := s.Read(buf)
			if n > 0 {
				got = append(got, buf[:n]...)
				continue
			}
			if err == io.EOF {
				s.Close()
			}
			return
		}
	})
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i * 7)
	}
	sent := 0
	pump := func() {
		for sent < total {
			n, _ := c.Write(want[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
		c.Close()
	}
	c.OnWritable(pump)
	pump()
	p.runUntil(t, func() bool { return len(got) == total && s.State() != StateEstablished },
		30*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream damaged across wraparound (%d bytes)", len(got))
	}
}

func TestSequenceWraparoundMidStream(t *testing.T) {
	// The sender's ISS sits just below 2^32, so sequence numbers wrap
	// within the first few segments.
	cfg := Config{ISS: issNear(0xffffffff - 3000)}
	transferAcross(t, cfg, 64*1024)
}

func TestSequenceWraparoundAtSynExactly(t *testing.T) {
	// ISS = 2^32 - 1: the SYN itself consumes the last sequence number.
	cfg := Config{ISS: issNear(0xffffffff)}
	transferAcross(t, cfg, 16*1024)
}

func TestSequenceWraparoundWithLoss(t *testing.T) {
	cfg := Config{ISS: issNear(0xffffffff - 2000)}
	p := newPair(t, cfg)
	c, s := p.connect(t, 80)
	// Drop every 5th data segment: retransmissions must handle wrapped
	// comparisons too.
	count := 0
	p.dropToB = func(seg []byte) bool {
		if len(RawPayload(seg)) > 0 {
			count++
			return count%5 == 0
		}
		return false
	}
	var got int
	buf := make([]byte, 65536)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			got += n
		}
	})
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
	p.runUntil(t, func() bool { return got == total }, 60*time.Second)
}

// TestSimultaneousOpen: both endpoints dial each other; the SYNs cross and
// RFC 793's simultaneous-open path must converge to one connection.
func TestSimultaneousOpen(t *testing.T) {
	p := newPair(t, Config{})
	ca, err := p.a.DialFrom(5000, p.bAddr, 6000)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := p.b.DialFrom(6000, p.aAddr, 5000)
	if err != nil {
		t.Fatal(err)
	}
	aEst, bEst := false, false
	ca.OnEstablished(func() { aEst = true })
	cb.OnEstablished(func() { bEst = true })
	p.runUntil(t, func() bool { return aEst && bEst }, 10*time.Second)
	if ca.State() != StateEstablished || cb.State() != StateEstablished {
		t.Fatalf("states: %v / %v", ca.State(), cb.State())
	}
	// Data flows both ways on the simultaneously opened connection.
	var atB []byte
	buf := make([]byte, 64)
	cb.OnReadable(func() {
		n, _ := cb.Read(buf)
		atB = append(atB, buf[:n]...)
	})
	if _, err := ca.Write([]byte("crossed")); err != nil {
		t.Fatal(err)
	}
	p.runUntil(t, func() bool { return string(atB) == "crossed" }, 10*time.Second)
}

// TestHeavyReordering delivers segments through a pipe that randomly delays
// them, forcing deep out-of-order reassembly.
func TestHeavyReordering(t *testing.T) {
	p := newPair(t, Config{})
	rng := rand.New(rand.NewSource(99))
	// Replace a->b transport with randomized delay (0.1ms - 3ms).
	p.a.output = func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		defer pkt.Release()
		SealChecksum(src, dst, pkt.Bytes())
		cp := append([]byte(nil), pkt.Bytes()...)
		d := time.Duration(100+rng.Intn(2900)) * time.Microsecond
		p.sched.After(d, "reorder.ab", func() { p.b.Input(src, dst, cp) })
		return nil
	}
	c, s := p.connect(t, 80)
	var got int
	buf := make([]byte, 65536)
	s.OnReadable(func() {
		for {
			n, _ := s.Read(buf)
			if n == 0 {
				return
			}
			got += n
		}
	})
	total := 128 * 1024
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
	p.runUntil(t, func() bool { return got == total }, 60*time.Second)
}

// TestRetransmissionLimitAborts: a peer that vanishes mid-connection leads
// to ErrTimeout after maxRetries timeouts, the RTO backing off to maxRTO.
func TestRetransmissionLimitAborts(t *testing.T) {
	p := newPair(t, Config{})
	c, _ := p.connect(t, 80)
	p.dropToB = func([]byte) bool { return true } // peer unreachable
	var gotErr error
	closed := false
	c.OnClose(func(err error) { closed, gotErr = true, err })
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	// 0.2 s doubling to 51.2 s, then four at maxRTO: 342.2 s of backoff.
	p.runUntil(t, func() bool { return closed }, 6*time.Minute)
	if gotErr != ErrTimeout {
		t.Errorf("close error = %v, want ErrTimeout", gotErr)
	}
}
