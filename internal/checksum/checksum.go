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
	// The one's-complement sum is taken eight bytes at a time: a big-endian
	// 64-bit load is four of the 16-bit words side by side, 2^16 ≡ 1 modulo
	// 2^16-1, and so the 64-bit sum with end-around carry folds down to the
	// sum of the words. The carry out of each add is fed into the next one
	// and the last is added back at the end.
	var sum, carry uint64
	odd := false // the previous chunk ended on the high byte of a word
	for _, b := range chunks {
		if odd && len(b) > 0 {
			sum, carry = bits.Add64(sum, uint64(b[0]), carry)
			b = b[1:]
			odd = false
		}
		for len(b) >= 32 { // unrolled: twice the speed on full-sized segments
			sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
			sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), carry)
			sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), carry)
			sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), carry)
			b = b[32:]
		}
		for len(b) >= 8 {
			sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
			b = b[8:]
		}
		if len(b) >= 4 {
			sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint32(b)), carry)
			b = b[4:]
		}
		if len(b) >= 2 {
			sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint16(b)), carry)
			b = b[2:]
		}
		if len(b) == 1 {
			// High byte of a word whose low byte is the next chunk's first
			// byte, or the zero padding if there is none.
			sum, carry = bits.Add64(sum, uint64(b[0])<<8, carry)
			odd = true
		}
	}
	sum, carry = bits.Add64(sum, carry, 0)
	sum += carry
	sum = sum>>32 + sum&0xffffffff // < 2^33
	sum = sum>>16 + sum&0xffff     // < 2^18
	return ^fold(uint32(sum))
}

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
