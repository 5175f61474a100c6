package tcp

import "tcpfailover/internal/obs"

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
type ring struct {
	buf   []byte // physical storage, len(buf) <= capacity
	cap   int    // logical capacity: the window the peer may fill
	start int
	size  int
	grows obs.Counter // counts grow() calls; resolved at ring creation
}

// ringMinAlloc is the smallest physical buffer; below this, doubling churn
// outweighs the memory saved.
const ringMinAlloc = 64

func newRing(capacity int, grows obs.Counter) *ring {
	return &ring{cap: capacity, grows: grows}
}

// Len returns the number of buffered bytes.
func (r *ring) Len() int { return r.size }

// Free returns the remaining logical capacity.
func (r *ring) Free() int { return r.cap - r.size }

// Cap returns the logical capacity.
func (r *ring) Cap() int { return r.cap }

// grow ensures the physical buffer holds need bytes, unrolling the current
// contents to offset 0. Doubling amortizes the copies; the logical capacity
// bounds the growth, so a ring never allocates more than it advertises.
func (r *ring) grow(need int) {
	r.grows.Inc()
	c := len(r.buf)
	if c == 0 {
		c = ringMinAlloc
	}
	for c < need {
		c *= 2
	}
	c = min(c, r.cap)
	nb := make([]byte, c)
	if r.size > 0 {
		first := copy(nb, r.buf[r.start:min(r.start+r.size, len(r.buf))])
		if first < r.size {
			copy(nb[first:], r.buf[:r.size-first])
		}
	}
	r.buf = nb
	r.start = 0
}

// release drops the physical buffer of an empty ring; a ring holding data
// keeps it. The logical capacity is untouched, and a later Write grows the
// buffer again as it did the first time.
func (r *ring) release() {
	if r.size == 0 {
		r.buf, r.start = nil, 0
	}
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
