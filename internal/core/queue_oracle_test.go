package core

import "tcpfailover/internal/tcp"

// oracleQueue is one of the primary bridge's per-connection output queues
// (the "primary server output queue" and "secondary server output queue" of
// the paper's Figure 2). It stores payload bytes of the server-to-client
// stream, indexed by sequence number in the secondary's sequence space.
// Bytes below the floor — already sent to the client — are discarded on
// insert. Blocks are kept sorted and non-overlapping, preferring
// already-held bytes on overlap (the replicas produce identical streams, so
// the choice is immaterial unless divergence detection trips).
type oracleQueue struct {
	floor   tcp.Seq // lowest sequence number of interest (= bridge sndMax)
	blocks  []oracleBlock
	bytes   int
	scratch []byte        // reusable coalescing buffer for Contiguous
	spare   []byte        // retired block storage, reused by Insert
	rebuild []oracleBlock // reusable target for out-of-order list rebuilds
}

// newBlockData copies payload into owned storage, reusing the spare block
// array when it fits. In the steady state — insert, match, drain — the same
// array cycles between the spare slot and the single live block, so the
// per-segment allocation disappears.
func (q *oracleQueue) newBlockData(payload []byte) []byte {
	if cap(q.spare) >= len(payload) {
		data := q.spare[:len(payload)]
		q.spare = nil
		copy(data, payload)
		return data
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	return data
}

type oracleBlock struct {
	seq  tcp.Seq
	data []byte
	// shared marks a block whose backing array is split between two list
	// entries (an insert split around an existing block). Shared storage
	// must never be retired to the spare slot while its sibling may live.
	shared bool
}

func (b oracleBlock) end() tcp.Seq { return b.seq.Add(len(b.data)) }

func newOracleQueue(floor tcp.Seq) *oracleQueue { return &oracleQueue{floor: floor} }

// reset re-initializes the queue to empty with the given floor. The bridges
// embed their queues by value inside slab records, so establishment calls
// reset instead of allocating a fresh queue; dropping the block slices here
// (rather than keeping them as scratch) is fine because slot reuse zeroes
// the record anyway.
func (q *oracleQueue) reset(floor tcp.Seq) { *q = oracleQueue{floor: floor} }

// Len returns the number of buffered bytes.
func (q *oracleQueue) Len() int { return q.bytes }

// Insert stores payload at seq, copying it and trimming anything below the
// floor or overlapping existing blocks.
func (q *oracleQueue) Insert(seq tcp.Seq, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if seq.Less(q.floor) {
		skip := q.floor.Diff(seq)
		if skip >= len(payload) {
			return
		}
		payload = payload[skip:]
		seq = q.floor
	}
	// Fast path: in-order arrival at the tail, the common case while the
	// replicas stay in step. Extends the last block (or appends a new one
	// past a gap) without rebuilding the block list.
	if n := len(q.blocks); n == 0 || q.blocks[n-1].end().Leq(seq) {
		if n > 0 && q.blocks[n-1].end() == seq {
			q.blocks[n-1].data = append(q.blocks[n-1].data, payload...)
		} else {
			q.blocks = append(q.blocks, oracleBlock{seq: seq, data: q.newBlockData(payload)})
		}
		q.bytes += len(payload)
		return
	}

	nb := oracleBlock{seq: seq, data: q.newBlockData(payload)}

	// A separate slice: splitting the new block around an existing one
	// appends two elements per element read, which would corrupt an aliased
	// in-place rebuild. The old array becomes the next rebuild target.
	if cap(q.rebuild) < len(q.blocks)+2 {
		q.rebuild = make([]oracleBlock, 0, 2*len(q.blocks)+2)
	}
	out := q.rebuild[:0]
	inserted := false
	for _, blk := range q.blocks {
		switch {
		case nb.data == nil || blk.end().Leq(nb.seq):
			out = append(out, blk)
		case nb.end().Leq(blk.seq):
			if !inserted {
				out = append(out, nb)
				q.bytes += len(nb.data)
				inserted = true
			}
			out = append(out, blk)
		default:
			if nb.seq.Less(blk.seq) {
				left := oracleBlock{seq: nb.seq, data: nb.data[:blk.seq.Diff(nb.seq)], shared: nb.shared}
				if nb.end().Greater(blk.end()) {
					// The remainder survives past blk too: the two pieces
					// alias one array.
					left.shared = true
				}
				out = append(out, left)
				q.bytes += len(left.data)
			}
			out = append(out, blk)
			if nb.end().Greater(blk.end()) {
				shared := nb.shared || nb.seq.Less(blk.seq)
				nb = oracleBlock{seq: blk.end(), data: nb.data[blk.end().Diff(nb.seq):], shared: shared}
			} else {
				nb.data = nil
				inserted = true
			}
		}
	}
	if nb.data != nil && !inserted {
		out = append(out, nb)
		q.bytes += len(nb.data)
	}
	q.rebuild = q.blocks[:0]
	q.blocks = out
}

// Contiguous returns the bytes available starting exactly at the floor
// (without consuming). The returned slice aliases internal storage and is
// valid only until the next Insert, Advance, or Contiguous call.
func (q *oracleQueue) Contiguous() []byte {
	if len(q.blocks) == 0 || q.blocks[0].seq != q.floor {
		return nil
	}
	// Coalesce adjacent blocks lazily: the common case is a single block.
	b := q.blocks[0]
	if len(q.blocks) == 1 || q.blocks[1].seq != b.end() {
		return b.data
	}
	q.scratch = q.scratch[:0]
	next := q.floor
	for _, blk := range q.blocks {
		if blk.seq != next {
			break
		}
		q.scratch = append(q.scratch, blk.data...)
		next = blk.end()
	}
	return q.scratch
}

// Advance raises the floor by n bytes, discarding everything below it.
func (q *oracleQueue) Advance(n int) {
	q.floor = q.floor.Add(n)
	var spare []byte
	out := q.blocks[:0]
	for _, blk := range q.blocks {
		if blk.end().Leq(q.floor) {
			q.bytes -= len(blk.data)
			// Retire the largest fully drained block's storage for reuse.
			// Split-aliased blocks are excluded: their array may still back
			// a surviving sibling.
			if !blk.shared && cap(blk.data) > cap(spare) {
				spare = blk.data[:0]
			}
			continue
		}
		if blk.seq.Less(q.floor) {
			cut := q.floor.Diff(blk.seq)
			q.bytes -= cut
			blk = oracleBlock{seq: q.floor, data: blk.data[cut:], shared: blk.shared}
		}
		out = append(out, blk)
	}
	q.blocks = out
	if cap(spare) > cap(q.spare) {
		q.spare = spare
	}
}

// Floor returns the current floor sequence number.
func (q *oracleQueue) Floor() tcp.Seq { return q.floor }
