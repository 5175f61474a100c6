package tcp

import (
	"bytes"

	"tcpfailover/internal/checksum"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
)

// This file implements the raw-segment surgery the failover bridges
// perform. The bridges sit below the TCP layer and operate on marshaled
// segments; the in-place mutators maintain the TCP checksum incrementally
// rather than recomputing it (paper section 3.1: "we subtract the original
// bytes from the checksum, and add the new bytes"). AppendOrigDstOption
// builds a new segment, which its caller seals once for the wire it takes;
// StripOrigDstOptionInPlace yields one that never reaches a wire, and so
// leaves its checksum field alone.

// Raw field readers. All assume a well-formed segment (len >= HeaderLen).

// RawSrcPort reads the source port of a marshaled segment.
func RawSrcPort(b []byte) uint16 { return getU16(b[0:]) }

// RawDstPort reads the destination port of a marshaled segment.
func RawDstPort(b []byte) uint16 { return getU16(b[2:]) }

// RawSeq reads the sequence number of a marshaled segment.
func RawSeq(b []byte) Seq { return Seq(getU32(b[4:])) }

// RawAck reads the acknowledgment number of a marshaled segment.
func RawAck(b []byte) Seq { return Seq(getU32(b[8:])) }

// RawFlags reads the control flags of a marshaled segment.
func RawFlags(b []byte) Flags { return Flags(b[13]) }

// RawWindow reads the advertised window of a marshaled segment.
func RawWindow(b []byte) uint16 { return getU16(b[14:]) }

// RawChecksum reads the checksum field of a marshaled segment.
func RawChecksum(b []byte) uint16 { return getU16(b[16:]) }

// RawHeaderLen returns the header length (including options) in bytes.
func RawHeaderLen(b []byte) int { return int(b[12]>>4) * 4 }

// RawSane reports whether a marshaled segment's data offset is consistent
// with its length: at least HeaderLen and not beyond the segment. The
// bridges call it before any other Raw accessor on bytes taken off the
// wire — the raw readers index by the offset nibble, so an attacker-forged
// offset (below 5, or pointing past a truncated segment) would otherwise
// read out of bounds. UnmarshalInto performs the equivalent check for the
// endpoint stacks; the bridges sit below them and must not trust the frame
// either.
func RawSane(b []byte) bool {
	if len(b) < HeaderLen {
		return false
	}
	hl := RawHeaderLen(b)
	return hl >= HeaderLen && hl <= len(b)
}

// RawPayload returns the payload of a marshaled segment (aliases b).
func RawPayload(b []byte) []byte { return b[RawHeaderLen(b):] }

// RawSegLen returns the sequence space the marshaled segment occupies.
func RawSegLen(b []byte) int {
	n := len(b) - RawHeaderLen(b)
	f := RawFlags(b)
	if f.Has(FlagSYN) {
		n++
	}
	if f.Has(FlagFIN) {
		n++
	}
	return n
}

func patchU16(b []byte, off int, v uint16) {
	old := getU16(b[off:])
	if old == v {
		return
	}
	putU16(b[off:], v)
	putU16(b[16:], checksum.Update(RawChecksum(b), old, v))
}

func patchU32(b []byte, off int, v uint32) {
	old := getU32(b[off:])
	if old == v {
		return
	}
	putU32(b[off:], v)
	putU16(b[16:], checksum.UpdateUint32(RawChecksum(b), old, v))
}

// SetRawSeq patches the sequence number, updating the checksum
// incrementally. The primary bridge uses it to subtract the sequence-number
// offset Delta-seq from segments produced by its own TCP layer.
func SetRawSeq(b []byte, v Seq) { patchU32(b, 4, uint32(v)) }

// SetRawAck patches the acknowledgment number incrementally.
func SetRawAck(b []byte, v Seq) { patchU32(b, 8, uint32(v)) }

// SetRawWindow patches the advertised window incrementally.
func SetRawWindow(b []byte, v uint16) { patchU16(b, 14, v) }

// SetRawDstPort patches the destination port incrementally.
func SetRawDstPort(b []byte, v uint16) { patchU16(b, 2, v) }

// SetRawSrcPort patches the source port incrementally.
func SetRawSrcPort(b []byte, v uint16) { patchU16(b, 0, v) }

// patchBytes overwrites b[off:off+len(newBytes)] and adjusts the checksum
// incrementally, handling arbitrary (odd) alignment by updating whole
// aligned 16-bit words. The old words are kept on the stack: the MSS clamp
// runs on every SYN the secondary snoops.
func patchBytes(b []byte, off int, newBytes []byte) {
	start := off &^ 1
	end := (off + len(newBytes) + 1) &^ 1
	if end > len(b) {
		end = len(b)
	}
	var buf [8]byte
	old := append(buf[:0], b[start:end]...)
	copy(b[off:], newBytes)
	putU16(b[16:], checksum.UpdateBytes(RawChecksum(b), old, b[start:end]))
}

// ClampRawMSS reduces the value of the MSS option in a marshaled SYN
// segment by reduce (to no less than 64 bytes), updating the checksum
// incrementally. The secondary bridge applies it to snooped SYNs so the
// segments its TCP layer later emits leave room for the 8-byte
// original-destination option the diversion adds — otherwise diverted
// full-MSS segments would exceed the link MTU. It reports whether an MSS
// option was found.
func ClampRawMSS(b []byte, reduce uint16) bool {
	if !RawSane(b) {
		return false
	}
	opts := b[HeaderLen:RawHeaderLen(b)]
	for i := 0; i < len(opts); {
		kind, end, ok := nextOption(opts, i)
		if !ok {
			return false
		}
		if kind == OptMSS && end-i == 4 {
			off := HeaderLen + i + 2
			old := getU16(b[off:])
			v := old - reduce
			if old < reduce+64 {
				v = 64
			}
			if v != old {
				patchBytes(b, off, []byte{byte(v >> 8), byte(v)})
			}
			return true
		}
		i = end
	}
	return false
}

// RawMSS reads the maximum-segment-size option of a marshaled segment
// without parsing it into a Segment: the value of the first well-sized MSS
// option and whether there is one (an announced MSS of 0 is not an absent
// option). Like UnmarshalInto it walks the whole option area and fails on
// a bad data offset or a malformed option anywhere in it, so a caller that
// ignores the segment on error ignores exactly what a parse would reject.
func RawMSS(b []byte) (mss uint16, present bool, err error) {
	if !RawSane(b) {
		return 0, false, ErrBadOffset
	}
	opts := b[HeaderLen:RawHeaderLen(b)]
	for i := 0; i < len(opts); {
		kind, end, ok := nextOption(opts, i)
		if !ok {
			return 0, false, ErrBadOption
		}
		if kind == OptMSS && end-i == 4 && !present {
			mss, present = getU16(opts[i+2:]), true
		}
		i = end
	}
	return mss, present, nil
}

// PatchPseudoAddr adjusts the checksum of a marshaled segment for a change
// of an address in the IPv4 pseudo-header (the address itself lives in the
// IP header, not in the segment). The secondary bridge uses this when it
// rewrites the destination address of the client datagrams it snoops.
func PatchPseudoAddr(b []byte, oldAddr, newAddr ipv4.Addr) {
	putU16(b[16:], checksum.UpdateUint32(RawChecksum(b), uint32(oldAddr), uint32(newAddr)))
}

// origDstBlockLen is the length of the block AppendOrigDstOption inserts:
// NOP, NOP, kind, length 6 and the four-byte address.
const origDstBlockLen = 8

// AppendOrigDstOption builds the diverted form of a marshaled segment
// directly into a pooled packet buffer: header, then the 8-byte
// original-destination option block (NOP, NOP, kind, length, orig), then
// payload, with the data offset patched. The checksum field is copied as it
// was; the caller seals the result for the hop it takes (SealChecksum). The
// secondary bridge applies this to every segment it diverts upstream so the
// primary bridge can recover the client address (paper section 3.1).
func AppendOrigDstOption(pkt *netbuf.Buffer, b []byte, orig ipv4.Addr) ([]byte, error) {
	hdrLen := RawHeaderLen(b)
	if hdrLen-HeaderLen+origDstBlockLen > MaxOptionLen {
		return nil, ErrBadOption
	}
	out := pkt.Extend(len(b) + origDstBlockLen)
	copy(out, b[:hdrLen])
	opt := out[hdrLen : hdrLen+origDstBlockLen]
	opt[0], opt[1], opt[2], opt[3] = OptNOP, OptNOP, OptOrigDst, 6
	ipv4.PutAddr(opt[4:], orig)
	copy(out[hdrLen+origDstBlockLen:], b[hdrLen:])
	out[12] = byte((hdrLen+origDstBlockLen)/4) << 4
	return out, nil
}

// HasOrigDstOption reports whether the marshaled segment carries an
// original-destination option, and whether it carries it in exactly the
// shape AppendOrigDstOption writes, without copying or modifying it. The
// primary's demultiplexer uses it to classify a datagram before the
// checksum verification that must precede the in-place strip, and drops a
// segment with the option in any other shape: the strip's offset arithmetic
// holds for that block alone.
func HasOrigDstOption(b []byte) (present, wellFormed bool) {
	_, present, wellFormed = findOrigDstOption(b)
	return present, wellFormed
}

// StripOrigDstOptionInPlace removes the original-destination block without
// copying the segment, restoring the header the secondary's TCP layer
// produced: the header bytes before the block shift forward over it and the
// stripped segment — a tail slice of b — is returned with the option value.
// Its checksum field still holds the diverted segment's: the stripped
// segment never reaches a wire, and whatever the bridge sends of it is
// sealed anew. The last return is false, and b comes back whole, unless the
// segment carries the option as AppendOrigDstOption writes it. The caller
// must own b (the primary's inbound hook does: each receiver gets a private
// copy of the frame).
func StripOrigDstOptionInPlace(b []byte) ([]byte, ipv4.Addr, bool) {
	addr, _, ok := findOrigDstOption(b)
	if !ok {
		return b, 0, false
	}
	hdrLen := RawHeaderLen(b)
	start := hdrLen - origDstBlockLen
	copy(b[origDstBlockLen:hdrLen], b[:start])
	out := b[origDstBlockLen:]
	out[12] = byte(start/4) << 4
	return out, addr, true
}

// findOrigDstOption walks the option area for original-destination options
// (kind 253, length 6). present reports at least one; wellFormed reports
// exactly one, stepped to over two NOPs and ending at the data offset — the
// block AppendOrigDstOption writes, on a word boundary because the data
// offset is one — and addr is then its value. A malformed option area
// carries none.
func findOrigDstOption(b []byte) (addr ipv4.Addr, present, wellFormed bool) {
	if !RawSane(b) {
		return 0, false, false
	}
	opts := b[HeaderLen:RawHeaderLen(b)]
	found, nops, last := 0, 0, false
	for i := 0; i < len(opts); {
		kind, next, ok := nextOption(opts, i)
		if !ok {
			return 0, false, false
		}
		if kind == OptOrigDst && next-i == 6 {
			found++
			addr = ipv4.GetAddr(opts[i+2 : next])
			last = nops >= 2 && next == len(opts)
		}
		if kind == OptNOP {
			nops++
		} else {
			nops = 0
		}
		i = next
	}
	return addr, found > 0, found == 1 && last
}

// CanCoalesceRaw reports whether marshaled segment next can be GRO-merged
// onto tail: both are pure in-order data segments (only ACK/PSH flags) with
// identical ports and option bytes, and next continues tail's sequence run
// exactly. Bare acks are not merged — they carry no payload and their
// timing matters to the sender's RTT estimator.
func CanCoalesceRaw(tail, next []byte) bool {
	if len(tail) < HeaderLen || len(next) < HeaderLen {
		return false
	}
	hl := RawHeaderLen(tail)
	if hl < HeaderLen || hl > len(tail) || hl != RawHeaderLen(next) || hl > len(next) {
		return false
	}
	if len(next) == hl {
		return false
	}
	if RawSrcPort(tail) != RawSrcPort(next) || RawDstPort(tail) != RawDstPort(next) {
		return false
	}
	const mergeable = FlagACK | FlagPSH
	if RawFlags(tail)&^mergeable != 0 || RawFlags(next)&^mergeable != 0 {
		return false
	}
	if hl > HeaderLen && !bytes.Equal(tail[HeaderLen:hl], next[HeaderLen:hl]) {
		return false
	}
	return RawSeq(tail).Add(len(tail)-hl) == RawSeq(next)
}

// FinishCoalesceRaw fixes up a GRO-merged segment after next's payload
// bytes have been appended to tail (which now includes them): the merged
// segment carries the later segment's acknowledgment, window, and PSH bit,
// and the checksum is recomputed for the new length.
func FinishCoalesceRaw(src, dst ipv4.Addr, tail, next []byte) {
	putU32(tail[8:], uint32(RawAck(next)))
	putU16(tail[14:], RawWindow(next))
	tail[13] |= byte(RawFlags(next) & FlagPSH)
	SealChecksum(src, dst, tail)
}
