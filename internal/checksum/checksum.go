// Package checksum implements the Internet checksum (RFC 1071) together
// with the incremental-update technique (RFC 1624) that the paper's bridges
// rely on: "it is not necessary to recompute the checksum from scratch.
// Instead, we subtract the original bytes from the checksum, and add the new
// bytes to the checksum" (paper, section 3.1).
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum computes the Internet checksum over the concatenation of the given
// byte slices: the one's-complement of the one's-complement sum of all
// 16-bit words. A trailing odd byte is padded with zero, as RFC 1071
// specifies; this is handled correctly even when the odd byte falls at a
// slice boundary.
func Sum(chunks ...[]byte) uint16 {
	// The one's-complement sum is taken eight bytes at a time: a 64-bit load
	// is four of the 16-bit words side by side, 2^16 ≡ 1 modulo 2^16-1, and
	// so the 64-bit sum with end-around carry folds down to the sum of the
	// words. The sum is byte-order independent (RFC 1071 §2(B)): words loaded
	// little-endian sum to the byte-swapped result, so the loads are native
	// on little-endian hosts and the swap is done once, on the folded sum.
	//
	// Two accumulators run independent carry chains, s0 over the low half of
	// each 64-byte step and s1 over the high half. Each step starts its
	// chains from no carry and banks their carries out in c, so the chain
	// carried from one step to the next is the adds alone.
	var s0, s1, c, k0, k1 uint64
	odd := false // the previous chunk ended on the high byte of a word
	for _, b := range chunks {
		if odd && len(b) > 0 {
			// Low byte of the word the previous chunk began.
			s0, k0 = bits.Add64(s0, uint64(b[0])<<8, 0)
			c += k0
			b = b[1:]
			odd = false
		}
		if len(b) >= 64 { // headers and the pseudo-header skip the loop's set-up
			n := len(b) &^ 63
			for i := 0; i < n; i += 64 {
				x := b[i : i+64 : i+64]
				s0, k0 = bits.Add64(s0, le64(x), 0)
				s0, k0 = bits.Add64(s0, le64(x[8:]), k0)
				s0, k0 = bits.Add64(s0, le64(x[16:]), k0)
				s0, k0 = bits.Add64(s0, le64(x[24:]), k0)
				s1, k1 = bits.Add64(s1, le64(x[32:]), 0)
				s1, k1 = bits.Add64(s1, le64(x[40:]), k1)
				s1, k1 = bits.Add64(s1, le64(x[48:]), k1)
				s1, k1 = bits.Add64(s1, le64(x[56:]), k1)
				c += k0 + k1
			}
			b = b[n:]
		}
		if len(b) >= 32 {
			s0, k0 = bits.Add64(s0, le64(b), 0)
			s0, k0 = bits.Add64(s0, le64(b[8:]), k0)
			s1, k1 = bits.Add64(s1, le64(b[16:]), 0)
			s1, k1 = bits.Add64(s1, le64(b[24:]), k1)
			c += k0 + k1
			b = b[32:]
		}
		if len(b) >= 16 {
			s0, k0 = bits.Add64(s0, le64(b), 0)
			s1, k1 = bits.Add64(s1, le64(b[8:]), 0)
			c += k0 + k1
			b = b[16:]
		}
		if len(b) >= 8 {
			s0, k0 = bits.Add64(s0, le64(b), 0)
			c += k0
			b = b[8:]
		}
		// Under eight bytes are left: they fill one word, added once.
		var w uint64
		if len(b) >= 4 {
			w = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		}
		if len(b) >= 2 {
			w |= uint64(binary.LittleEndian.Uint16(b)) << 32
			b = b[2:]
		}
		if len(b) == 1 {
			// High byte of a word whose low byte is the next chunk's first
			// byte, or the zero padding if there is none.
			w |= uint64(b[0]) << 48
			odd = true
		}
		s1, k1 = bits.Add64(s1, w, 0)
		c += k1
	}
	sum, carry := bits.Add64(s0, s1, 0)
	sum, carry = bits.Add64(sum, c, carry)
	sum += carry // cannot wrap: a carried add leaves sum ≤ c
	// Adding a word to itself rotated by half its width leaves the
	// end-around-carry sum of its halves in the upper half: the lower
	// half's carry out is the end-around carry.
	sum += bits.RotateLeft64(sum, 32)
	half := uint32(sum >> 32)
	half += bits.RotateLeft32(half, 16)
	return ^bits.ReverseBytes16(uint16(half >> 16))
}

// le64 loads eight bytes little-endian.
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// fold reduces a 32-bit partial sum to 16 bits with end-around carry.
func fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return uint16(sum)
}

// Update returns the checksum that results from replacing the 16-bit word
// old with the 16-bit word new in data whose checksum was oldSum, using the
// RFC 1624 equation 3 form (HC' = ~(~HC + ~m + m')). Both words must be
// aligned on the same even/odd boundary they occupied in the original data.
func Update(oldSum, oldWord, newWord uint16) uint16 {
	sum := uint32(^oldSum&0xffff) + uint32(^oldWord&0xffff) + uint32(newWord)
	return ^fold(sum)
}

// UpdateBytes incrementally adjusts oldSum for an in-place replacement of
// oldBytes with newBytes at an even (16-bit aligned) offset. The slices may
// have different lengths; odd-length slices are zero-padded, matching how
// they contribute to a full recomputation when they terminate the data.
func UpdateBytes(oldSum uint16, oldBytes, newBytes []byte) uint16 {
	sum := uint32(^oldSum & 0xffff)
	for i := 0; i < len(oldBytes); i += 2 {
		w := uint32(oldBytes[i]) << 8
		if i+1 < len(oldBytes) {
			w |= uint32(oldBytes[i+1])
		}
		sum += uint32(^uint16(w)) & 0xffff
	}
	for i := 0; i < len(newBytes); i += 2 {
		w := uint32(newBytes[i]) << 8
		if i+1 < len(newBytes) {
			w |= uint32(newBytes[i+1])
		}
		sum += w
	}
	return ^fold(sum)
}

// UpdateUint32 incrementally adjusts oldSum for replacing a 32-bit value
// (e.g. an IPv4 address or TCP sequence number) at an even offset.
func UpdateUint32(oldSum uint16, oldVal, newVal uint32) uint16 {
	sum := Update(oldSum, uint16(oldVal>>16), uint16(newVal>>16))
	return Update(sum, uint16(oldVal), uint16(newVal))
}
