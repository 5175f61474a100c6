package tcp

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
