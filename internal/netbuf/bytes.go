package netbuf

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The byte store recycles the storage behind tcp.ByteRing, the one ring that
// holds payload between packets (the TCP send and receive buffers and the
// primary bridge's match queues). It sits beside the packet pool and is
// backed by sync.Pool like it, for the same two reasons: simulations on
// separate goroutines share it without a lock of their own, and what it
// retains belongs to the collector, not to the live heap — a forced
// collection empties it.
//
// Ownership rules:
//
//   - TakeBytes hands out len == cap == a power of two, MinBytes at least,
//     with undefined contents: the taker writes before it reads.
//   - ReturnBytes ends the owner's claim. Nothing may alias the buffer
//     afterwards; a slice of it handed to other code must have been
//     consumed (copied, marshalled) before the return.
//   - Every owner returns, a crashed host's TCP layer and bridge too; only a
//     scenario discarded wholesale leaves its buffers to the collector.
const (
	MinBytes = 64    // smallest class
	MaxBytes = 65536 // largest class: one unscaled TCP window, rounded up
)

const (
	minShift = 6  // log2(MinBytes)
	maxShift = 16 // log2(MaxBytes)
)

// bytePools holds one pool per class. Entries are pointers to the first
// byte of a class-sized array: a pointer fits sync.Pool's interface word,
// where a slice header would be boxed on every return.
var bytePools [maxShift - minShift + 1]sync.Pool

var poison atomic.Bool

// liveBytes is the storage taken and not yet returned, counted only under
// SetLeakCheck.
var liveBytes atomic.Int64

// LiveBytes returns the bytes of ring storage taken but not returned since
// leak checking was enabled: zero once every ring of a finished simulation
// has been released. Storage left to the collector counts as live.
func LiveBytes() int64 { return liveBytes.Load() }

// SetPoison makes ReturnBytes overwrite what it takes back, so that a stale
// alias reads as a byte mismatch in whatever verifies the payload. For
// tests; costs one pass over each returned buffer.
func SetPoison(on bool) { poison.Store(on) }

// poisonByte is what a returned buffer is filled with under SetPoison.
const poisonByte = 0xDB

// Poison fills b with the poison byte under SetPoison and leaves it alone
// otherwise. Owners of reused buffers besides the store (tcp.Conn.Scratch)
// call it when they hand one out.
func Poison(b []byte) {
	if poison.Load() {
		fillPoison(b)
	}
}

// fillPoison fills b with the poison byte in doubling copies, which the race
// detector checks as ranges rather than byte by byte.
func fillPoison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = poisonByte
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// byteClass returns the index of the smallest class holding n bytes.
func byteClass(n int) int {
	if n <= MinBytes {
		return 0
	}
	return bits.Len(uint(n-1)) - minShift
}

// TakeBytes returns a buffer of at least n bytes, rounded up to the next
// power of two: its class. A request beyond MaxBytes is served from the heap
// and is not recycled.
func TakeBytes(n int) []byte {
	c := byteClass(n)
	size := MinBytes << c
	if leakCheck.Load() {
		liveBytes.Add(int64(size))
	}
	if c < len(bytePools) {
		if p, _ := bytePools[c].Get().(*byte); p != nil {
			return unsafe.Slice(p, size)
		}
	}
	return make([]byte, size)
}

// ReturnBytes gives *p back to the store and clears the caller's handle.
// Returning through a cleared handle panics: with recycling, a double
// return hands one array to two owners.
func ReturnBytes(p *[]byte) {
	b := *p
	if b == nil {
		panic("netbuf: byte buffer returned twice")
	}
	*p = nil
	b = b[:cap(b)]
	c := byteClass(len(b))
	if len(b) != MinBytes<<c {
		panic("netbuf: returned byte buffer was not taken from the store")
	}
	if leakCheck.Load() {
		liveBytes.Add(-int64(len(b)))
	}
	if c >= len(bytePools) {
		return // heap-served oversize request; let the GC take it
	}
	if poison.Load() {
		fillPoison(b)
	}
	bytePools[c].Put(unsafe.SliceData(b))
}
