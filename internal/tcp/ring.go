package tcp

import (
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
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
