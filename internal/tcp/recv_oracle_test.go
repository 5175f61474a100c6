package tcp

// What a connection's receive and send buffers must hold, written to be
// checked by eye, and the differential harnesses that hold a Conn to them.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/sim"
)

// recvModel is the receive buffer as a specification: the in-order bytes the
// application has yet to read, and every byte held beyond a gap by its
// sequence number. The window is the capacity the unread bytes leave; bytes
// held beyond a gap do not shrink it.
type recvModel struct {
	rcvNxt   Seq
	capacity int
	readable []byte
	beyond   map[Seq]byte
}

func (m *recvModel) window() int { return m.capacity - len(m.readable) }

// deliver keeps every byte of a segment inside [rcvNxt, rcvNxt+window) —
// the first copy of a byte wins — and makes readable the run that then
// starts at rcvNxt.
func (m *recvModel) deliver(start Seq, payload []byte) {
	edge := m.rcvNxt.Add(m.window())
	for i, b := range payload {
		s := start.Add(i)
		if s.Less(m.rcvNxt) || s.Geq(edge) {
			continue
		}
		if held, ok := m.beyond[s]; ok {
			b = held
		}
		if s != m.rcvNxt {
			m.beyond[s] = b
			continue
		}
		delete(m.beyond, s)
		m.readable = append(m.readable, b)
		m.rcvNxt = m.rcvNxt.Add(1)
	}
	for b, ok := m.beyond[m.rcvNxt]; ok; b, ok = m.beyond[m.rcvNxt] {
		delete(m.beyond, m.rcvNxt)
		m.readable = append(m.readable, b)
		m.rcvNxt = m.rcvNxt.Add(1)
	}
}

// read takes up to len(p) readable bytes.
func (m *recvModel) read(p []byte) int {
	n := copy(p, m.readable)
	m.readable = m.readable[n:]
	return n
}

// TestReassemblyInOrderPop pins the model's own contract, so that a harness
// failure points at the Conn and not at a reference that drifted: a byte
// beyond a gap waits, and filling the gap makes the whole run readable.
func TestReassemblyInOrderPop(t *testing.T) {
	m := &recvModel{rcvNxt: 100, capacity: 8, beyond: map[Seq]byte{}}
	m.deliver(103, []byte("defghijk")) // "ijk" lies past the window's edge
	m.deliver(100, []byte("abc"))
	got := make([]byte, 16)
	if n := m.read(got); string(got[:n]) != "abcdefgh" || len(m.beyond) != 0 || m.rcvNxt != 108 {
		t.Fatalf("read %q, %d bytes beyond a gap, rcvNxt %d", got[:n], len(m.beyond), m.rcvNxt)
	}
}

// oracleConn returns an established, passively opened connection on a stack
// whose output goes nowhere. The peer's first data byte is irs+1.
func oracleConn(t testing.TB, cfg Config, irs Seq) *Conn {
	t.Helper()
	local, remote := ipv4.MustParseAddr("10.0.0.1"), ipv4.MustParseAddr("10.0.0.2")
	s := NewStack(sim.New(1), cfg, func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		SealChecksum(src, dst, pkt.Bytes())
		pkt.Release()
		return nil
	}, func(ipv4.Addr) (ipv4.Addr, bool) { return local, true })
	l, err := s.Listen(80, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuple := Tuple{LocalAddr: local, LocalPort: 80, RemoteAddr: remote, RemotePort: 4000}
	s.accept(l, tuple, &Segment{Seq: irs, Flags: FlagSYN, Window: 65535})
	c := s.findConn(tuple)
	c.input(&Segment{Seq: irs.Add(1), Ack: c.sndNxt, Flags: FlagACK, Window: 65535})
	if c.State() != StateEstablished {
		t.Fatalf("set-up: connection is %v", c.State())
	}
	return c
}

// streamByte is the payload at a stream offset. Every copy of a byte
// carries the same value, as retransmissions do, so every byte read can be
// checked against the stream itself.
func streamByte(off int) byte { return byte(off*131 + off>>8*29 + off>>16) }

// runReceiveProgramme feeds one Conn and the model the same segments and
// reads — prog is six bytes a step, as the byte queue's programmes are: a
// kind, a 16-bit position, a 16-bit length and a spare — and demands the
// same rcvNxt, readable and out-of-order byte counts and advertised window
// after every step, and the same bytes from every read. It returns how many
// bytes were read.
func runReceiveProgramme(t *testing.T, capacity int, irs Seq, prog []byte) (read int) {
	t.Helper()
	c := oracleConn(t, Config{RecvBufSize: capacity}, irs)
	defer c.Abort() // gives the rings back
	o := &recvModel{rcvNxt: irs.Add(1), capacity: capacity, beyond: map[Seq]byte{}}
	first := irs.Add(1)
	got, want := make([]byte, 4097), make([]byte, 4097)

	for step := 0; len(prog) >= 6; step, prog = step+1, prog[6:] {
		kind, v, l := prog[0], int(binary.LittleEndian.Uint16(prog[1:])), int(binary.LittleEndian.Uint16(prog[3:]))
		if kind%8 >= 6 { // the application reads
			n, _ := c.Read(got[:l%4097])
			m := o.read(want[:l%4097])
			if n != m || !bytes.Equal(got[:n], want[:m]) {
				t.Fatalf("step %d: Read returned %d bytes, oracle %d (equal=%v)", step, n, m, bytes.Equal(got[:n], want[:m]))
			}
			for i := range n {
				if got[i] != streamByte(read+i) {
					t.Fatalf("step %d: stream byte %d reads %#x, want %#x", step, read+i, got[i], streamByte(read+i))
				}
			}
			read += n
		} else {
			n, wnd := l%3000+1, o.window()
			var seq Seq
			switch kind % 8 {
			case 0, 1: // in order: extends the run, and fills the gap if there is one
				seq = o.rcvNxt
			case 2: // duplicate: starts in what has been received, may reach past it
				seq = o.rcvNxt.Add(-1 - v%4096)
			case 3: // around rcvNxt: overlaps on either side, small gaps
				seq = o.rcvNxt.Add(v%8192 - 4096)
			case 4: // ahead, anywhere in the window: leaves gaps and fills them in any order
				seq = o.rcvNxt.Add(v % (wnd + 1))
			case 5: // ending within two bytes of the window's edge, or wholly beyond it
				seq = o.rcvNxt.Add(wnd - n + v%5 - 2)
				if v&0x100 != 0 {
					seq = o.rcvNxt.Add(wnd + v)
				}
			}
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = streamByte(seq.Diff(first) + i)
			}
			c.input(&Segment{Seq: seq, Ack: c.sndNxt, Flags: FlagACK, Window: 65535, Payload: payload})
			o.deliver(seq, payload)
		}
		if c.rcvNxt != o.rcvNxt || c.rcvBuf.Ready() != len(o.readable) || c.rcvBuf.Len()-c.rcvBuf.Ready() != len(o.beyond) ||
			int(c.advertisedWindow()) != min(o.window(), 65535) {
			t.Fatalf("step %d (kind %d): rcvNxt %d buffered %d beyond-gap %d window %d, model %d %d %d %d", step, kind%8,
				c.rcvNxt, c.rcvBuf.Ready(), c.rcvBuf.Len()-c.rcvBuf.Ready(), c.advertisedWindow(),
				o.rcvNxt, len(o.readable), len(o.beyond), min(o.window(), 65535))
		}
	}
	return read
}

// TestReceiveAgainstOracle runs seeded programmes at the three buffer sizes
// in use (connscale's 1 KiB, the flow-control tests' 4 KiB, the default), a
// third of them with the stream starting within 64 KiB of the 2^32 wrap.
// Returned rings are poisoned, so a stale alias shows as a byte mismatch.
func TestReceiveAgainstOracle(t *testing.T) {
	netbuf.SetPoison(true)
	defer netbuf.SetPoison(false)
	rng := rand.New(rand.NewSource(18))
	read := 0
	for trial := range 1200 {
		irs := Seq(rng.Uint32())
		if trial%3 == 0 {
			irs = Seq(0).Add(-rng.Intn(1 << 16))
		}
		prog := make([]byte, 6*(20+rng.Intn(200)))
		rng.Read(prog)
		read += runReceiveProgramme(t, []int{1024, 4096, 65535}[trial%3], irs, prog)
	}
	if read < 10<<20 {
		t.Errorf("the programmes read %d bytes in all: too few to have exercised the receive path", read)
	}
}

// FuzzReceive searches receive programmes for a divergence from the model.
func FuzzReceive(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for _, irs := range []uint32{0, 1 << 31, 0xFFFFFF00} {
		prog := make([]byte, 6*64)
		rng.Read(prog)
		f.Add(irs, uint16(4096), prog)
	}
	f.Fuzz(func(t *testing.T, irs uint32, capacity uint16, prog []byte) {
		runReceiveProgramme(t, int(capacity)+1, Seq(irs), prog)
	})
}

// TestRingAgainstReference is the send-side case: writes, acknowledgments
// and copies out at an offset (what a retransmission does) against a plain
// slice of the queued bytes, at a capacity that is not a class size and from
// an ISS whose stream crosses 2^32. The storage grows through several classes and
// is poisoned when outgrown, so bytes left behind would show as a mismatch.
func TestRingAgainstReference(t *testing.T) {
	netbuf.SetPoison(true)
	defer netbuf.SetPoison(false)
	const capacity = 1000
	rng := rand.New(rand.NewSource(7))
	c := oracleConn(t, Config{SendBufSize: capacity, ISS: func(*rand.Rand) Seq { return 0xFFFFF000 }}, 1)
	defer c.Abort()
	var queued []byte
	acked := 0
	for i := range 5000 {
		switch rng.Intn(3) {
		case 0: // write
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			n, err := c.Write(p)
			want := min(len(p), capacity-len(queued))
			if n != want || err != nil {
				t.Fatalf("op %d: Write accepted %d (%v), want %d", i, n, err, want)
			}
			queued = append(queued, p[:n]...)
		case 1: // the peer acknowledges some of what is in flight
			k := rng.Intn(c.sndNxt.Diff(c.sndUna) + 1)
			c.input(&Segment{Seq: c.rcvNxt, Ack: c.sndUna.Add(k), Flags: FlagACK, Window: 65535})
			queued = queued[k:]
			acked += k
		case 2: // copy out at a random offset
			if len(queued) == 0 {
				continue
			}
			off := rng.Intn(len(queued))
			got := make([]byte, rng.Intn(20)+1)
			n, want := c.sndBuf.CopyAt(off, got), queued[off:min(off+len(got), len(queued))]
			if !bytes.Equal(got[:n], want) {
				t.Fatalf("op %d: CopyAt(%d) got %q want %q", i, off, got[:n], want)
			}
		}
		if c.sndBuf.Ready() != len(queued) || c.SendFree() != capacity-len(queued) {
			t.Fatalf("op %d: queued/free %d/%d, want %d/%d", i, c.sndBuf.Ready(), c.SendFree(), len(queued), capacity-len(queued))
		}
	}
	if acked < 64*capacity {
		t.Errorf("only %d bytes acknowledged: the ring barely turned", acked)
	}
}
