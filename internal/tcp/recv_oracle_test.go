package tcp

// The parent's receive and send buffering, kept verbatim as the oracle the
// ByteRing-backed Conn is compared against: the byte ring with a lazily
// grown physical buffer (ring.go) and the block list that held out-of-order
// segments (reasm.go), plus processPayload's trimming and pop-then-rewrite
// as oracleReceiver.deliver.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// ring is a byte ring buffer with a fixed logical capacity and a lazily
// grown physical buffer. The send buffer keeps unacknowledged and unsent
// bytes (consumed as acknowledgments arrive); the receive buffer keeps
// in-order bytes awaiting the application. Window arithmetic everywhere
// uses the logical capacity (Cap/Free), so growth is invisible to the
// protocol: a connection that only ever buffers a few bytes — one side of
// most request/reply conversations — never pays for its configured
// capacity. At 10 000 connections across three stacks that is the
// difference between rings dominating the working set and rings being a
// rounding error.
//
// The physical buffer comes from netbuf's byte store and goes back to it
// when the ring outgrows it, is released empty, or is dropped with its
// connection, so a stream of short connections cycles one set of buffers
// instead of allocating a fresh 64 KB ring each. A Conn embeds its two rings
// by value; the zero ring with cap set is ready to use.
type ring struct {
	buf   []byte // physical storage: a store class, so it may round up past cap
	cap   int    // logical capacity: the window the peer may fill
	start int
	size  int
	// grows is tcp_ring_grows_total, resolved at ring creation: it counts
	// every take from the store, a ring's first included.
	grows obs.Counter
}

func newRing(capacity int, grows obs.Counter) ring {
	return ring{cap: capacity, grows: grows}
}

// Len returns the number of buffered bytes.
func (r *ring) Len() int { return r.size }

// Free returns the remaining logical capacity.
func (r *ring) Free() int { return r.cap - r.size }

// Cap returns the logical capacity.
func (r *ring) Cap() int { return r.cap }

// grow ensures the physical buffer holds need bytes, unrolling the current
// contents to offset 0 of a larger one and returning the outgrown buffer.
// The store's classes are powers of two from 64 bytes, so a ring that
// outgrows one at least doubles, which amortizes the copies; the explicit
// doubling only matters to a capacity beyond the largest class.
func (r *ring) grow(need int) {
	r.grows.Inc()
	nb := netbuf.TakeBytes(min(max(need, 2*len(r.buf)), r.cap))
	if r.size > 0 {
		first := copy(nb, r.buf[r.start:min(r.start+r.size, len(r.buf))])
		if first < r.size {
			copy(nb[first:], r.buf[:r.size-first])
		}
	}
	if r.buf != nil {
		netbuf.ReturnBytes(&r.buf)
	}
	r.buf = nb
	r.start = 0
}

// release returns the physical buffer of an empty ring to the store; a ring
// holding data keeps it. The logical capacity is untouched, and a later
// Write grows the buffer again as it did the first time.
func (r *ring) release() {
	if r.size == 0 && r.buf != nil {
		netbuf.ReturnBytes(&r.buf)
		r.start = 0
	}
}

// drop discards whatever the ring holds and releases it: the send ring of a
// connection that is gone has nobody left to retransmit to.
func (r *ring) drop() {
	r.size = 0
	r.release()
}

// Write appends up to len(p) bytes, returning how many were accepted.
func (r *ring) Write(p []byte) int {
	n := min(len(p), r.Free())
	if n == 0 {
		return 0
	}
	if r.size+n > len(r.buf) {
		r.grow(r.size + n)
	}
	end := (r.start + r.size) % len(r.buf)
	first := copy(r.buf[end:], p[:n])
	if first < n {
		copy(r.buf, p[first:n])
	}
	r.size += n
	return n
}

// Peek copies up to len(p) bytes starting at logical offset off without
// consuming them, returning the number copied.
func (r *ring) Peek(off int, p []byte) int {
	if off >= r.size {
		return 0
	}
	n := min(len(p), r.size-off)
	pos := (r.start + off) % len(r.buf)
	first := copy(p[:n], r.buf[pos:])
	if first < n {
		copy(p[first:n], r.buf)
	}
	return n
}

// Consume discards n bytes from the front. n must not exceed Len.
func (r *ring) Consume(n int) {
	if n > r.size {
		n = r.size
	}
	if n == 0 {
		return
	}
	r.start = (r.start + n) % len(r.buf)
	r.size -= n
	if r.size == 0 {
		r.start = 0
	}
}

// Read copies and consumes up to len(p) bytes.
func (r *ring) Read(p []byte) int {
	n := r.Peek(0, p)
	r.Consume(n)
	return n
}

// reassembly holds out-of-order segment payloads until the receive window's
// left edge catches up. Blocks are kept sorted and non-overlapping; inserts
// are trimmed against existing blocks, preferring already-held data (TCP
// receivers keep the first copy of a byte).
type reassembly struct {
	blocks []reasmBlock
}

type reasmBlock struct {
	seq  Seq
	data []byte
}

func (b reasmBlock) end() Seq { return b.seq.Add(len(b.data)) }

// insert stores payload at seq, copying the data.
func (ra *reassembly) insert(seq Seq, payload []byte) {
	if len(payload) == 0 {
		return
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	nb := reasmBlock{seq: seq, data: data}

	// A fresh slice: splitting the new block around an existing one appends
	// two elements per element read, which would corrupt an aliased
	// in-place rebuild.
	out := make([]reasmBlock, 0, len(ra.blocks)+2)
	inserted := false
	for _, blk := range ra.blocks {
		switch {
		case nb.data == nil || blk.end().Leq(nb.seq):
			out = append(out, blk)
		case nb.end().Leq(blk.seq):
			if !inserted {
				out = append(out, nb)
				inserted = true
			}
			out = append(out, blk)
		default:
			// Overlap: trim the new block against the existing one.
			if nb.seq.Less(blk.seq) {
				left := reasmBlock{seq: nb.seq, data: nb.data[:blk.seq.Diff(nb.seq)]}
				out = append(out, left)
			}
			out = append(out, blk)
			if nb.end().Greater(blk.end()) {
				nb = reasmBlock{seq: blk.end(), data: nb.data[blk.end().Diff(nb.seq):]}
			} else {
				nb.data = nil
				inserted = true
			}
		}
	}
	if nb.data != nil && !inserted {
		out = append(out, nb)
	}
	ra.blocks = out
}

// pop removes and returns data contiguous with next, advancing through as
// many blocks as connect. It returns nil when the first block is not
// adjacent.
func (ra *reassembly) pop(next Seq) []byte {
	var out []byte
	for len(ra.blocks) > 0 {
		blk := ra.blocks[0]
		if blk.seq.Greater(next) {
			break
		}
		if blk.end().Leq(next) { // fully duplicate
			ra.blocks = ra.blocks[1:]
			continue
		}
		out = append(out, blk.data[next.Diff(blk.seq):]...)
		next = blk.end()
		ra.blocks = ra.blocks[1:]
	}
	return out
}

// empty reports whether no out-of-order data is held.
func (ra *reassembly) empty() bool { return len(ra.blocks) == 0 }

// TestReassemblyInOrderPop pins the oracle's own contract, so that a harness
// failure points at the ring and not at a reference that drifted.
func TestReassemblyInOrderPop(t *testing.T) {
	var ra reassembly
	ra.insert(100, []byte("abc"))
	ra.insert(103, []byte("def"))
	got := ra.pop(100)
	if string(got) != "abcdef" {
		t.Fatalf("pop = %q", got)
	}
	if !ra.empty() {
		t.Error("not empty after full pop")
	}
}

// oracleReceiver is the receive half of the parent's Conn: rcvNxt, the ring
// of in-order bytes and the reassembly list.
type oracleReceiver struct {
	rcvNxt Seq
	rcvBuf ring
	reasm  reassembly
}

// deliver is the parent's segAcceptable test and processPayload, verbatim
// but for the acknowledgment bookkeeping and callbacks, which are cut.
func (c *oracleReceiver) deliver(start Seq, payload []byte) {
	if !start.Leq(c.rcvNxt) && !start.InWindow(c.rcvNxt, c.rcvBuf.Free()) {
		return
	}
	// Trim the already-received prefix.
	if start.Less(c.rcvNxt) {
		skip := c.rcvNxt.Diff(start)
		if skip >= len(payload) {
			return
		}
		payload = payload[skip:]
		start = c.rcvNxt
	}
	// Trim to the window.
	limit := c.rcvNxt.Add(c.rcvBuf.Free())
	if start.Add(len(payload)).Greater(limit) {
		keep := limit.Diff(start)
		if keep <= 0 {
			return
		}
		payload = payload[:keep]
	}

	if start == c.rcvNxt {
		n := c.rcvBuf.Write(payload)
		c.rcvNxt = c.rcvNxt.Add(n)
		if more := c.reasm.pop(c.rcvNxt); len(more) > 0 {
			m := c.rcvBuf.Write(more)
			c.rcvNxt = c.rcvNxt.Add(m)
			if m < len(more) {
				c.reasm.insert(c.rcvNxt, more[m:])
			}
		}
	} else {
		c.reasm.insert(start, payload)
	}
}

// discard is a detached counter for the oracle rings.
func discard() obs.Counter { return (*obs.Registry)(nil).Counter("test") }

// oracleConn returns an established, passively opened connection on a stack
// whose output goes nowhere. The peer's first data byte is irs+1.
func oracleConn(t testing.TB, cfg Config, irs Seq) *Conn {
	t.Helper()
	local, remote := ipv4.MustParseAddr("10.0.0.1"), ipv4.MustParseAddr("10.0.0.2")
	s := NewStack(sim.New(1), cfg, func(_, _ ipv4.Addr, pkt *netbuf.Buffer) error {
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
// carries the same value, as retransmissions do: the one case where the two
// receivers would keep different copies — an in-order segment overlapping
// bytes already held beyond a gap, where the parent let the newcomer
// overwrite and the ring keeps the first — cannot show.
func streamByte(off int) byte { return byte(off*131 + off>>8*29 + off>>16) }

// runReceiveProgramme feeds one Conn and the oracle the same segments and
// reads — prog is six bytes a step, as the byte queue's programmes are: a
// kind, a 16-bit position, a 16-bit length and a spare — and demands the same rcvNxt, readable and out-of-order byte counts
// and advertised window after every step, and the same bytes from every
// read. It returns how many bytes were read.
func runReceiveProgramme(t *testing.T, capacity int, irs Seq, prog []byte) (read int) {
	t.Helper()
	c := oracleConn(t, Config{RecvBufSize: capacity}, irs)
	defer c.Abort() // gives the rings back
	o := &oracleReceiver{rcvNxt: irs.Add(1), rcvBuf: newRing(capacity, discard())}
	defer o.rcvBuf.drop()
	first := irs.Add(1)
	got, want := make([]byte, 4097), make([]byte, 4097)

	for step := 0; len(prog) >= 6; step, prog = step+1, prog[6:] {
		kind, v, l := prog[0], int(binary.LittleEndian.Uint16(prog[1:])), int(binary.LittleEndian.Uint16(prog[3:]))
		if kind%8 >= 6 { // the application reads
			n, _ := c.Read(got[:l%4097])
			m := o.rcvBuf.Read(want[:l%4097])
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
			n, wnd := l%3000+1, o.rcvBuf.Free()
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
		beyond := 0
		for _, b := range o.reasm.blocks {
			beyond += len(b.data)
		}
		if c.rcvNxt != o.rcvNxt || c.Buffered() != o.rcvBuf.Len() || c.rcvBuf.Len()-c.rcvBuf.Ready() != beyond ||
			int(c.advertisedWindow()) != min(o.rcvBuf.Free(), 65535) {
			t.Fatalf("step %d (kind %d): rcvNxt %d buffered %d beyond-gap %d window %d, oracle %d %d %d %d", step, kind%8,
				c.rcvNxt, c.Buffered(), c.rcvBuf.Len()-c.rcvBuf.Ready(), c.advertisedWindow(),
				o.rcvNxt, o.rcvBuf.Len(), beyond, min(o.rcvBuf.Free(), 65535))
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

// FuzzReceive searches receive programmes for a divergence from the oracle.
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
// and copies out at an offset (what a retransmission does) against the
// parent's ring, at a capacity that is not a class size and from an ISS
// whose stream crosses 2^32. The storage grows through several classes and
// is poisoned when outgrown, so bytes left behind would show as a mismatch.
func TestRingAgainstReference(t *testing.T) {
	netbuf.SetPoison(true)
	defer netbuf.SetPoison(false)
	const capacity = 1000
	rng := rand.New(rand.NewSource(7))
	c := oracleConn(t, Config{SendBufSize: capacity, ISS: func(*rand.Rand) Seq { return 0xFFFFF000 }}, 1)
	defer c.Abort()
	o := newRing(capacity, discard())
	defer o.drop()
	acked := 0
	for i := range 5000 {
		switch rng.Intn(3) {
		case 0: // write
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			n, err := c.Write(p)
			if want := o.Write(p); n != want || err != nil {
				t.Fatalf("op %d: Write accepted %d (%v), want %d", i, n, err, want)
			}
		case 1: // the peer acknowledges some of what is in flight
			k := rng.Intn(c.sndNxt.Diff(c.sndUna) + 1)
			c.input(&Segment{Seq: c.rcvNxt, Ack: c.sndUna.Add(k), Flags: FlagACK, Window: 65535})
			o.Consume(k)
			acked += k
		case 2: // copy out at a random offset
			if o.Len() == 0 {
				continue
			}
			off := rng.Intn(o.Len())
			got, want := make([]byte, rng.Intn(20)+1), make([]byte, 21)
			n, m := c.sndBuf.CopyAt(off, got), o.Peek(off, want[:len(got)])
			if n != m || !bytes.Equal(got[:n], want[:m]) {
				t.Fatalf("op %d: CopyAt(%d) got %q want %q", i, off, got[:n], want[:m])
			}
		}
		if c.SendQueued() != o.Len() || c.SendFree() != o.Free() {
			t.Fatalf("op %d: queued/free %d/%d, oracle %d/%d", i, c.SendQueued(), c.SendFree(), o.Len(), o.Free())
		}
	}
	if acked < 64*capacity {
		t.Errorf("only %d bytes acknowledged: the ring barely turned", acked)
	}
}
