package flowtab

import "math/bits"

// PortSet is a membership set over the full 16-bit port space: 65 536 bits
// in a flat [1024]uint64 array. The selector keeps two of these on the
// per-segment verdict path where it previously probed map[uint16]bool — a
// Contains is one shift, one mask, and one indexed load into an 8 KB array,
// with no hashing and nothing for the garbage collector to visit. The array
// is allocated by the first Add: a set nobody fills, as a selector's peer
// ports usually are, costs a nil pointer, and its Contains a nil test. The
// zero value is an empty set.
type PortSet struct {
	bits *[1024]uint64
	n    int
}

// Add inserts port p.
func (s *PortSet) Add(p uint16) {
	if s.bits == nil {
		s.bits = new([1024]uint64)
	}
	w, b := p>>6, uint64(1)<<(p&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.n++
	}
}

// Contains reports whether port p is in the set.
func (s *PortSet) Contains(p uint16) bool {
	return s.bits != nil && s.bits[p>>6]&(uint64(1)<<(p&63)) != 0
}

// Len returns the number of ports in the set.
func (s *PortSet) Len() int { return s.n }

// Append appends the member ports to dst in ascending order and returns it.
func (s *PortSet) Append(dst []uint16) []uint16 {
	if s.bits == nil {
		return dst
	}
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, uint16(w<<6+b))
			word &= word - 1
		}
	}
	return dst
}
