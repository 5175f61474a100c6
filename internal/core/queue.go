package core

import (
	"slices"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/tcp"
)

// byteQueue is one of the primary bridge's per-connection output queues
// (the "primary server output queue" and "secondary server output queue" of
// the paper's Figure 2). It stores payload bytes of the server-to-client
// stream, indexed by sequence number in the secondary's sequence space.
//
// The bytes live in one power-of-two ring taken from netbuf's byte store:
// the byte with sequence number s sits at buf[s & (len(buf)-1)], whatever
// the floor (2^32 is a multiple of every ring size, so the index survives
// sequence wraparound). Which bytes are held is a sorted list of disjoint,
// non-adjacent spans — exactly one while the replica's segments arrive in
// order. Insert copies only bytes not yet held, so on overlap the bytes
// already held win (the replicas produce identical streams, so the choice
// is immaterial unless divergence detection trips); Advance only moves the
// floor. Bytes below the floor — already sent to the client — are
// discarded on insert.
type byteQueue struct {
	floor tcp.Seq // lowest sequence number of interest (= bridge sndMax)
	buf   []byte  // ring storage; nil until the first insert and after release
	held  []span  // sorted held ranges, all within [floor, floor+queueSpan)
	bytes int
}

// span is the held range [seq, end).
type span struct{ seq, end tcp.Seq }

// queueSpan is how far past its floor a queue holds bytes. TCP here has no
// window scaling, so a replica never sends further than 65 535 bytes past
// what the client acknowledged, which the floor has passed; the largest
// store class covers that. A segment claiming more is forged, and is
// clipped rather than allowed to size an allocation.
const queueSpan = netbuf.MaxBytes

// reset empties the queue, returns its ring and sets the floor.
func (q *byteQueue) reset(floor tcp.Seq) {
	q.release()
	*q = byteQueue{floor: floor, held: q.held[:0]}
}

// release returns the ring to the store. The caller must be done with every
// slice Peek handed out, and with the bytes still held.
func (q *byteQueue) release() {
	if q.buf != nil {
		netbuf.ReturnBytes(&q.buf)
	}
}

// Len returns the number of buffered bytes.
func (q *byteQueue) Len() int { return q.bytes }

// Floor returns the current floor sequence number.
func (q *byteQueue) Floor() tcp.Seq { return q.floor }

// ringPut writes src into ring buf at sequence number seq, around the wrap
// point if it must.
func ringPut(buf []byte, seq tcp.Seq, src []byte) {
	at := int(seq) & (len(buf) - 1)
	if n := copy(buf[at:], src); n < len(src) {
		copy(buf, src[n:])
	}
}

// grow moves the held bytes into a ring of at least need bytes and returns
// the outgrown one.
func (q *byteQueue) grow(need int) {
	old := q.buf
	q.buf = netbuf.TakeBytes(need)
	for _, s := range q.held {
		n, at := s.end.Diff(s.seq), int(s.seq)&(len(old)-1)
		first := min(n, len(old)-at)
		ringPut(q.buf, s.seq, old[at:at+first])
		ringPut(q.buf, s.seq.Add(first), old[:n-first])
	}
	if old != nil {
		netbuf.ReturnBytes(&old)
	}
}

// Insert stores payload at seq, copying the bytes not yet held and trimming
// anything below the floor. It returns how many bytes lay beyond queueSpan
// and were dropped.
func (q *byteQueue) Insert(seq tcp.Seq, payload []byte) (clipped int) {
	off := seq.Diff(q.floor)
	if off < 0 || len(payload) > queueSpan-off || len(payload) == 0 {
		// The uncommon trims, kept off the in-order path.
		if off < 0 {
			if off <= -len(payload) {
				return 0
			}
			payload, seq, off = payload[-off:], q.floor, 0
		}
		if room := max(queueSpan-off, 0); len(payload) > room {
			clipped, payload = len(payload)-room, payload[:room]
		}
		if len(payload) == 0 {
			return clipped
		}
	}
	end := seq.Add(len(payload))
	if need := off + len(payload); need > len(q.buf) {
		q.grow(need)
	}
	switch n := len(q.held); {
	case n == 0:
		q.held = append(q.held, span{seq, end})
	case q.held[n-1].end == seq:
		// In order, straight after the last span: the steady state.
		q.held[n-1].end = end
	default:
		q.merge(seq, end, payload)
		return clipped
	}
	ringPut(q.buf, seq, payload)
	q.bytes += len(payload)
	return clipped
}

// merge is Insert's general case: payload for [seq, end) lands among the
// held spans. Spans [i, j) overlap or abut it; the gaps between them are
// copied, then they are replaced by their union with the new range.
func (q *byteQueue) merge(seq, end tcp.Seq, payload []byte) {
	i := 0
	for i < len(q.held) && q.held[i].end.Less(seq) {
		i++
	}
	j, next := i, seq
	for ; j < len(q.held) && q.held[j].seq.Leq(end); j++ {
		h := q.held[j]
		if next.Less(h.seq) {
			ringPut(q.buf, next, payload[next.Diff(seq):h.seq.Diff(seq)])
			q.bytes += h.seq.Diff(next)
		}
		next = h.end
	}
	if next.Less(end) {
		ringPut(q.buf, next, payload[next.Diff(seq):])
		q.bytes += end.Diff(next)
	}
	merged := span{seq, end}
	if i < j {
		merged = span{tcp.MinSeq(seq, q.held[i].seq), tcp.MaxSeq(end, q.held[j-1].end)}
	}
	q.held = slices.Replace(q.held, i, j, merged)
}

// Ready returns the number of bytes held contiguously from the floor.
func (q *byteQueue) Ready() int {
	if len(q.held) == 0 || q.held[0].seq != q.floor {
		return 0
	}
	return q.held[0].end.Diff(q.floor)
}

// Peek returns the first n ready bytes without consuming them, 0 < n <=
// Ready: a direct slice of the ring, or, when they straddle its wrap point,
// a copy assembled in *scratch. Either is valid until the next Insert or
// release; Advance leaves the bytes in place.
func (q *byteQueue) Peek(n int, scratch *[]byte) []byte {
	at := int(q.floor) & (len(q.buf) - 1)
	if at+n <= len(q.buf) {
		return q.buf[at : at+n]
	}
	*scratch = append(append((*scratch)[:0], q.buf[at:]...), q.buf[:at+n-len(q.buf)]...)
	return *scratch
}

// Advance raises the floor by n bytes, discarding everything below it.
func (q *byteQueue) Advance(n int) {
	q.floor = q.floor.Add(n)
	k := 0
	for k < len(q.held) && q.held[k].end.Leq(q.floor) {
		q.bytes -= q.held[k].end.Diff(q.held[k].seq)
		k++
	}
	q.held = slices.Delete(q.held, 0, k)
	if len(q.held) > 0 && q.held[0].seq.Less(q.floor) {
		q.bytes -= q.floor.Diff(q.held[0].seq)
		q.held[0].seq = q.floor
	}
}
