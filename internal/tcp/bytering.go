package tcp

import (
	"slices"

	"tcpfailover/internal/netbuf"
)

// ByteRing holds payload bytes addressed by sequence number and hands them
// on from an in-order floor. It is the one buffer payload waits in between
// packets: a connection's send buffer (floor = first unacknowledged data
// byte), its receive buffer (floor = first byte the application has not
// read) and each of the primary bridge's per-connection output queues
// (Figure 2 of the paper; floor = next byte to release to the client).
//
// The bytes live in one power-of-two buffer taken from netbuf's byte store:
// the byte with sequence number s sits at buf[s & (len(buf)-1)], whatever
// the floor (2^32 is a multiple of every ring size, so the index survives
// sequence wraparound). The run held contiguously from the floor is kept
// inline as [floor, end); ranges held beyond a gap are a sorted list of
// disjoint spans that touch neither each other nor the run, behind a
// pointer that stays nil until a segment arrives out of order (8 bytes, not
// a slice header). Insert copies only bytes not yet held, so the first copy
// of a byte wins; Advance only moves the floor. The buffer grows through the
// store's classes as the distance from the floor to the highest held byte
// grows, so a ring that only ever holds a few bytes never pays for its
// owner's capacity.
//
// A ring holds storage only while it holds bytes. Each owner calls Release
// when its ring drains, and the next Insert takes storage again: a send
// buffer when an ack leaves it empty, a receive buffer when a read empties
// it with nothing held beyond a gap, and the bridge's two queues of a
// connection together, once neither holds a byte.
//
// The zero ByteRing is an empty ring with floor 0, and an empty ring holds
// no heap pointer: it can be embedded by value in records the collector
// should not have to scan.
type ByteRing struct {
	floor Seq     // lowest sequence number of interest
	end   Seq     // end of the in-order run [floor, end)
	buf   []byte  // ring storage; nil until the first insert and after Release
	ooo   *[]span // ranges held beyond the run; taken by the first out-of-order insert, dropped by Release
}

// span is the held range [seq, end).
type span struct{ seq, end Seq }

// Reset empties the ring, returns its storage and sets the floor.
func (r *ByteRing) Reset(floor Seq) {
	r.floor = floor
	r.Release()
}

// Release discards whatever the ring holds and returns its storage to the
// store; the floor stays, and a later Insert takes storage again as the
// first one did. The caller must be done with every slice Peek handed out.
func (r *ByteRing) Release() {
	if r.buf != nil {
		netbuf.ReturnBytes(&r.buf)
	}
	r.end, r.ooo = r.floor, nil
}

// Floor returns the current floor sequence number.
func (r *ByteRing) Floor() Seq { return r.floor }

// End returns the sequence number just past the in-order run: the lowest
// byte not yet held.
func (r *ByteRing) End() Seq { return r.end }

// Ready returns the number of bytes held contiguously from the floor.
func (r *ByteRing) Ready() int { return r.end.Diff(r.floor) }

// spans returns the ranges held beyond the run.
func (r *ByteRing) spans() []span {
	if r.ooo == nil {
		return nil
	}
	return *r.ooo
}

// Len returns the number of bytes held, those beyond a gap included.
func (r *ByteRing) Len() int {
	n := r.Ready()
	for _, s := range r.spans() {
		n += s.end.Diff(s.seq)
	}
	return n
}

// Cap returns the size of the storage the ring holds at the moment.
func (r *ByteRing) Cap() int { return len(r.buf) }

// ringPut writes src into ring buf at sequence number seq, around the wrap
// point if it must.
func ringPut(buf []byte, seq Seq, src []byte) {
	at := int(seq) & (len(buf) - 1)
	if n := copy(buf[at:], src); n < len(src) {
		copy(buf, src[n:])
	}
}

// ringMove copies the bytes of [seq, end) from ring src into ring dst.
func ringMove(dst, src []byte, seq, end Seq) {
	n, at := end.Diff(seq), int(seq)&(len(src)-1)
	first := min(n, len(src)-at)
	ringPut(dst, seq, src[at:at+first])
	ringPut(dst, seq.Add(first), src[:n-first])
}

// grow moves the held bytes into a buffer of at least need bytes and
// returns the outgrown one.
func (r *ByteRing) grow(need int) {
	old := r.buf
	r.buf = netbuf.TakeBytes(need)
	if old == nil {
		return
	}
	ringMove(r.buf, old, r.floor, r.end)
	for _, s := range r.spans() {
		ringMove(r.buf, old, s.seq, s.end)
	}
	netbuf.ReturnBytes(&old)
}

// Insert stores payload at seq, copying the bytes not yet held and trimming
// anything below the floor. The ring holds nothing at or beyond floor+limit
// — the owner's logical capacity, which also bounds the storage a segment
// can make the ring take — and Insert returns how many bytes lay there and
// were dropped.
func (r *ByteRing) Insert(seq Seq, payload []byte, limit int) (clipped int) {
	off := seq.Diff(r.floor)
	if off < 0 || len(payload) > limit-off || len(payload) == 0 {
		// The uncommon trims, kept off the in-order path.
		if off < 0 {
			if off <= -len(payload) {
				return 0
			}
			payload, seq, off = payload[-off:], r.floor, 0
		}
		if room := max(limit-off, 0); len(payload) > room {
			clipped, payload = len(payload)-room, payload[:room]
		}
		if len(payload) == 0 {
			return clipped
		}
	}
	if need := off + len(payload); need > len(r.buf) {
		r.grow(need)
	}
	end := seq.Add(len(payload))
	if seq == r.end && len(r.spans()) == 0 {
		// In order with nothing held beyond: the steady state.
		ringPut(r.buf, seq, payload)
		r.end = end
		return clipped
	}
	r.merge(seq, end, payload)
	return clipped
}

// merge is Insert's general case: payload for [seq, end) lands among the
// held ranges. The bytes the run does not cover and the gaps between the
// spans [i, j) that overlap or abut the range are copied; then those spans
// are replaced by their union with the range, which becomes part of the run
// if it reaches down to it.
func (r *ByteRing) merge(seq, end Seq, payload []byte) {
	next := MaxSeq(seq, r.end) // the run's bytes are held
	if next.Geq(end) {
		return
	}
	ooo, i := r.spans(), 0
	for i < len(ooo) && ooo[i].end.Less(seq) {
		i++
	}
	j := i
	for ; j < len(ooo) && ooo[j].seq.Leq(end); j++ {
		h := ooo[j]
		if next.Less(h.seq) {
			ringPut(r.buf, next, payload[next.Diff(seq):h.seq.Diff(seq)])
		}
		next = h.end
	}
	if next.Less(end) {
		ringPut(r.buf, next, payload[next.Diff(seq):])
	}
	if i < j {
		seq, end = MinSeq(seq, ooo[i].seq), MaxSeq(end, ooo[j-1].end)
	}
	if seq.Leq(r.end) {
		r.end = end
		if i < j {
			*r.ooo = slices.Delete(ooo, i, j)
		}
		return
	}
	if r.ooo == nil {
		r.ooo = new([]span) // a fresh box: pointing at a local would move it to the heap on every call
	}
	*r.ooo = slices.Replace(ooo, i, j, span{seq, end})
}

// Peek returns the first n ready bytes without consuming them, 0 < n <=
// Ready: a direct slice of the ring, or, when they straddle its wrap point,
// a copy assembled in *scratch. Either is valid until the next Insert or
// Release; Advance leaves the bytes in place.
func (r *ByteRing) Peek(n int, scratch *[]byte) []byte {
	at := int(r.floor) & (len(r.buf) - 1)
	if at+n <= len(r.buf) {
		return r.buf[at : at+n]
	}
	*scratch = append(append((*scratch)[:0], r.buf[at:]...), r.buf[:at+n-len(r.buf)]...)
	return *scratch
}

// CopyAt copies ready bytes starting off bytes above the floor into p
// without consuming them, and returns how many there were to copy.
func (r *ByteRing) CopyAt(off int, p []byte) int {
	n := min(len(p), r.Ready()-off)
	if n <= 0 {
		return 0
	}
	at := int(r.floor.Add(off)) & (len(r.buf) - 1)
	if first := copy(p[:n], r.buf[at:]); first < n {
		copy(p[first:n], r.buf)
	}
	return n
}

// Advance raises the floor by n bytes, discarding everything below it.
func (r *ByteRing) Advance(n int) {
	r.floor = r.floor.Add(n)
	if r.floor.Leq(r.end) {
		return
	}
	// Past the run: spans the floor has passed go, and one it has reached
	// becomes the run.
	r.end = r.floor
	ooo, k := r.spans(), 0
	for k < len(ooo) && ooo[k].end.Leq(r.floor) {
		k++
	}
	if k < len(ooo) && ooo[k].seq.Leq(r.floor) {
		r.end = ooo[k].end
		k++
	}
	if k > 0 {
		*r.ooo = slices.Delete(ooo, 0, k)
	}
}
