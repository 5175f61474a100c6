// Package netbuf provides pooled packet buffers with headroom for the
// simulated network's hot path. A TCP payload is written once into a Buffer;
// the TCP header is written in front of it in the same allocation, and the
// IPv4 header is later prepended in place into the reserved headroom — the
// three per-layer copies of the original stack collapse onto one buffer.
// The Ethernet layer carries the same buffer to each receiver, handing the
// original to the last matching station and pooled clones to the others.
//
// Ownership rules (enforced by the leak-check mode, see SetLeakCheck):
//
//   - Whoever holds a *Buffer owns it and must either pass ownership on or
//     Release it. Passing a Buffer to tcp.Output, Host.sendPacket, or
//     ethernet's NIC.Send transfers ownership unconditionally — even when
//     those calls return an error.
//   - The Ethernet receive handler owns the buffer of every delivered
//     frame; netstack releases it once protocol input returns. Protocol
//     input (TCP, bridges, heartbeats) must therefore copy any bytes it
//     wants to keep — they all do, which is what makes single-buffer
//     delivery safe.
//   - Release must be called exactly once; a double Release panics.
//
// Buffers come from a sync.Pool because the parallel benchmark harness runs
// independent simulations on separate goroutines; within one simulation all
// use is single-threaded.
package netbuf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Headroom is the space reserved in front of the data for headers prepended
// in place. It covers the IPv4 header (the Ethernet header travels as frame
// fields, not bytes); ipv4 asserts at compile time that its header fits.
const Headroom = 20

// payloadRoom accommodates a full Ethernet payload (1500 bytes MTU) with a
// little slack for oversized experiments.
const payloadRoom = 1536

// storeSize is the capacity of pooled backing stores. Buffers that grow
// beyond it are dropped at Release instead of repooled.
const storeSize = Headroom + payloadRoom

// Buffer is a packet buffer: a backing store with a data window [off, end).
// New buffers start with the window empty at Headroom, so Prepend can move
// the front edge backward without copying.
type Buffer struct {
	store    []byte
	off, end int
	released bool
}

var pool = sync.Pool{
	New: func() any {
		return &Buffer{store: make([]byte, storeSize), off: Headroom, end: Headroom}
	},
}

// leakCheck, when enabled, tracks the number of live (acquired, unreleased)
// buffers so tests can assert that a whole simulation leaks nothing.
var (
	leakCheck atomic.Bool
	live      atomic.Int64
)

// SetLeakCheck enables or disables live-buffer accounting — packet buffers
// (Live) and ring storage (LiveBytes) — and resets both counters. Intended
// for tests; the counters cost two atomic ops per buffer when enabled.
func SetLeakCheck(on bool) {
	leakCheck.Store(on)
	live.Store(0)
	liveBytes.Store(0)
}

// Live returns the number of buffers acquired but not yet released since
// leak checking was enabled.
func Live() int64 { return live.Load() }

// Get returns an empty buffer with Headroom bytes of front reserve.
func Get() *Buffer {
	b := pool.Get().(*Buffer)
	b.off, b.end = Headroom, Headroom
	b.released = false
	if leakCheck.Load() {
		live.Add(1)
	}
	return b
}

// From returns a pooled buffer whose data is a copy of p (with headroom).
func From(p []byte) *Buffer {
	b := Get()
	copy(b.Extend(len(p)), p)
	return b
}

// Release returns the buffer to the pool. The caller must not touch the
// buffer or any slice obtained from it afterwards. Releasing twice panics:
// with pooling, a double release aliases two live packets onto one store.
func (b *Buffer) Release() {
	if b.released {
		panic("netbuf: buffer released twice")
	}
	b.released = true
	if leakCheck.Load() {
		live.Add(-1)
	}
	if cap(b.store) != storeSize {
		return // grown past pool size; let the GC take it
	}
	pool.Put(b)
}

// Bytes returns the current data window. The slice aliases the buffer.
func (b *Buffer) Bytes() []byte { return b.store[b.off:b.end] }

// Len returns the data length.
func (b *Buffer) Len() int { return b.end - b.off }

// Room returns how many bytes Extend can add before the store would have to
// be reallocated (and the buffer would fall out of the pool). GRO-style
// coalescing uses this to merge only when the merged packet stays pooled.
func (b *Buffer) Room() int { return len(b.store) - b.end }

// Extend grows the data window by n bytes at the back and returns the new
// region for the caller to fill (its prior contents are undefined — callers
// must overwrite every byte). It reallocates only for oversized packets.
func (b *Buffer) Extend(n int) []byte {
	if b.end+n > len(b.store) {
		grown := make([]byte, b.end+n+payloadRoom)
		copy(grown, b.store[:b.end])
		b.store = grown
	}
	b.end += n
	return b.store[b.end-n : b.end]
}

// Prepend grows the data window by n bytes at the front, into the headroom,
// and returns the new region. It panics if the headroom is exhausted —
// that is a layering bug, not a runtime condition.
func (b *Buffer) Prepend(n int) []byte {
	if n > b.off {
		panic(fmt.Sprintf("netbuf: prepend %d bytes with %d headroom", n, b.off))
	}
	b.off -= n
	return b.store[b.off : b.off+n]
}

// TrimFront drops n bytes from the front of the data window, reclaiming
// them as headroom. A forwarding router strips the received IP header this
// way and prepends the rewritten one in place, forwarding without a copy.
func (b *Buffer) TrimFront(n int) {
	if n > b.Len() {
		panic(fmt.Sprintf("netbuf: trim %d bytes of %d", n, b.Len()))
	}
	b.off += n
}

// Clone returns an independent pooled copy of the buffer's data (with fresh
// headroom).
func (b *Buffer) Clone() *Buffer {
	c := Get()
	copy(c.Extend(b.Len()), b.Bytes())
	return c
}
