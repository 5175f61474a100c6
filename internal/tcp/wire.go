// Package tcp is a user-space implementation of the Transmission Control
// Protocol (RFC 793) for the simulated network: segment wire format with
// options, checksums over the IPv4 pseudo-header, the full connection state
// machine, sliding-window flow control, RTT estimation with exponential
// retransmission backoff, Reno-style congestion control, delayed
// acknowledgments, and half-close semantics.
//
// The package also exposes the raw-segment accessors the failover bridges
// need: reading and patching header fields of marshaled segments in place
// with incremental checksum updates (paper section 3.1), and inserting or
// removing the "original destination" header option the secondary bridge
// uses to divert its output to the primary.
package tcp

import (
	"errors"

	"tcpfailover/internal/checksum"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
)

// Flags is the TCP control-flag set.
type Flags uint8

// Flag values.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all flags in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders the flags tcpdump-style.
func (f Flags) String() string {
	s := ""
	for _, fl := range []struct {
		f Flags
		c string
	}{{FlagSYN, "S"}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}, {FlagACK, "."}, {FlagURG, "U"}} {
		if f.Has(fl.f) {
			s += fl.c
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Option kinds.
const (
	OptEnd     = 0
	OptNOP     = 1
	OptMSS     = 2
	OptOrigDst = 253 // RFC 3692 experimental kind, carries the paper's "original destination address" option
)

// Option is a TCP header option.
type Option struct {
	Kind byte
	Data []byte
}

// HeaderLen is the length of the option-less TCP header.
const HeaderLen = 20

// MaxOptionLen bounds the options area (data offset is 4 bits of words).
const MaxOptionLen = 40

// Segment is a parsed TCP segment.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     Seq
	Ack     Seq
	Flags   Flags
	Window  uint16
	Urgent  uint16
	Options []Option
	Payload []byte
}

// Len returns the amount of sequence space the segment occupies: payload
// bytes plus one for SYN and one for FIN.
func (s *Segment) Len() int {
	n := len(s.Payload)
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

// MSS returns the value of the maximum-segment-size option, if present.
func (s *Segment) MSS() (uint16, bool) {
	for _, o := range s.Options {
		if o.Kind == OptMSS && len(o.Data) == 2 {
			return uint16(o.Data[0])<<8 | uint16(o.Data[1]), true
		}
	}
	return 0, false
}

// OrigDst returns the original-destination option value, if present.
func (s *Segment) OrigDst() (ipv4.Addr, bool) {
	for _, o := range s.Options {
		if o.Kind == OptOrigDst && len(o.Data) == 4 {
			return ipv4.GetAddr(o.Data), true
		}
	}
	return 0, false
}

// MSSOption builds a maximum-segment-size option.
func MSSOption(mss uint16) Option {
	return Option{Kind: OptMSS, Data: []byte{byte(mss >> 8), byte(mss)}}
}

// Errors returned by Unmarshal and the raw accessors.
var (
	ErrTruncated   = errors.New("tcp: truncated segment")
	ErrBadOffset   = errors.New("tcp: bad data offset")
	ErrBadChecksum = errors.New("tcp: bad checksum")
	ErrBadOption   = errors.New("tcp: malformed option")
)

func optionsWireLen(opts []Option) int {
	n := 0
	for _, o := range opts {
		if o.Kind == OptEnd || o.Kind == OptNOP {
			n++
		} else {
			n += 2 + len(o.Data)
		}
	}
	return (n + 3) &^ 3 // pad to 32-bit boundary
}

// putHeader writes s's header and options into b[:hdrLen], where hdrLen is
// HeaderLen + optionsWireLen(s.Options). Every byte is written explicitly —
// b may be pooled storage — and the checksum field is left zero for
// SealChecksum.
func putHeader(b []byte, s *Segment, hdrLen int) {
	putU16(b[0:], s.SrcPort)
	putU16(b[2:], s.DstPort)
	putU32(b[4:], uint32(s.Seq))
	putU32(b[8:], uint32(s.Ack))
	b[12] = byte(hdrLen/4) << 4
	b[13] = byte(s.Flags)
	putU16(b[14:], s.Window)
	putU16(b[16:], 0)
	putU16(b[18:], s.Urgent)
	off := HeaderLen
	for _, o := range s.Options {
		if o.Kind == OptEnd || o.Kind == OptNOP {
			b[off] = o.Kind
			off++
			continue
		}
		b[off] = o.Kind
		b[off+1] = byte(2 + len(o.Data))
		copy(b[off+2:], o.Data)
		off += 2 + len(o.Data)
	}
	for off < hdrLen {
		b[off] = OptNOP
		off++
	}
}

// Marshal renders the segment in wire format with the checksum computed
// over the pseudo-header for src/dst.
func Marshal(src, dst ipv4.Addr, s *Segment) []byte {
	hdrLen := HeaderLen + optionsWireLen(s.Options)
	b := make([]byte, hdrLen+len(s.Payload))
	putHeader(b, s, hdrLen)
	copy(b[hdrLen:], s.Payload)
	SealChecksum(src, dst, b)
	return b
}

// MarshalReserve writes the segment's header and options into pkt and
// extends the buffer by payloadLen further bytes, returning that payload
// region for the caller to fill directly (s.Payload is ignored). The
// checksum field is left zero; call SealChecksum once the payload is
// written. This is the zero-copy path: the send buffer's bytes are peeked
// straight into the packet buffer.
func MarshalReserve(pkt *netbuf.Buffer, s *Segment, payloadLen int) []byte {
	hdrLen := HeaderLen + optionsWireLen(s.Options)
	b := pkt.Extend(hdrLen + payloadLen)
	putHeader(b, s, hdrLen)
	return b[hdrLen:]
}

// SealChecksum computes and stores the checksum of a marshaled segment,
// overwriting whatever its checksum field held. Whoever puts a segment on a
// wire seals it, once (see Output).
func SealChecksum(src, dst ipv4.Addr, b []byte) {
	putU16(b[16:], 0)
	putU16(b[16:], ComputeChecksum(src, dst, b))
}

// VerifyChecksum reports whether a marshaled segment's checksum verifies, as
// ComputeChecksum(src, dst, b) == 0 does, and returns the one's-complement
// sum of its payload, b[RawHeaderLen(b):], taken on the way (each byte is
// summed once), for SealChecksumFrom to reuse.
func VerifyChecksum(src, dst ipv4.Addr, b []byte) (payloadSum uint16, ok bool) {
	hl := RawHeaderLen(b)
	payloadSum = ^checksum.Sum(b[hl:]) // Sum complements the folded sum
	return payloadSum, splitChecksum(src, dst, b, hl, payloadSum) == 0
}

// SealChecksumFrom is SealChecksum for a segment whose payload sums to
// payloadSum, as VerifyChecksum returned it: only the pseudo-header and the
// header are read. The field it stores is the one SealChecksum would, bit for
// bit — a one's-complement sum is independent of grouping, and the payload
// starts on a word boundary.
func SealChecksumFrom(src, dst ipv4.Addr, b []byte, payloadSum uint16) {
	putU16(b[16:], 0)
	putU16(b[16:], splitChecksum(src, dst, b, RawHeaderLen(b), payloadSum))
}

// splitChecksum is the checksum of segment b over the pseudo-header, where
// the header b[:hl] is summed and the rest, b[hl:], is taken to sum to
// payloadSum, which rides as a pseudo-header word.
func splitChecksum(src, dst ipv4.Addr, b []byte, hl int, payloadSum uint16) uint16 {
	var pseudo [14]byte
	ipv4.PutAddr(pseudo[0:4], src)
	ipv4.PutAddr(pseudo[4:8], dst)
	pseudo[9] = ipv4.ProtoTCP
	putU16(pseudo[10:], uint16(len(b)))
	putU16(pseudo[12:], payloadSum)
	return checksum.Sum(pseudo[:], b[:hl])
}

// Unmarshal parses a wire-format segment. If verify is true the checksum is
// validated against the pseudo-header. The returned payload aliases b.
func Unmarshal(src, dst ipv4.Addr, b []byte, verify bool) (*Segment, error) {
	s := new(Segment)
	if err := UnmarshalInto(src, dst, b, verify, s); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalInto parses a wire-format segment into s, overwriting every
// field; the caller may reuse one Segment across calls (the stack's input
// path does, keeping the per-segment receive cost off the heap). Option
// data is still copied, but only option-bearing segments — SYNs — pay for
// it. The payload aliases b.
func UnmarshalInto(src, dst ipv4.Addr, b []byte, verify bool, s *Segment) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	hdrLen := int(b[12]>>4) * 4
	if hdrLen < HeaderLen || hdrLen > len(b) {
		return ErrBadOffset
	}
	if verify && ComputeChecksum(src, dst, b) != 0 {
		return ErrBadChecksum
	}
	*s = Segment{
		SrcPort: getU16(b[0:]),
		DstPort: getU16(b[2:]),
		Seq:     Seq(getU32(b[4:])),
		Ack:     Seq(getU32(b[8:])),
		Flags:   Flags(b[13]),
		Window:  getU16(b[14:]),
		Urgent:  getU16(b[18:]),
		Payload: b[hdrLen:],
		Options: s.Options[:0],
	}
	opts := b[HeaderLen:hdrLen]
	for i := 0; i < len(opts); {
		kind, end, ok := nextOption(opts, i)
		if !ok {
			return ErrBadOption
		}
		if kind != OptEnd && kind != OptNOP {
			data := make([]byte, end-i-2)
			copy(data, opts[i+2:end])
			s.Options = append(s.Options, Option{Kind: kind, Data: data})
		}
		i = end
	}
	return nil
}

// nextOption decodes the option that starts at opts[i], where opts is a
// header's whole option area. It is the one place option bytes off the wire
// are bounds-checked: every parser of them — UnmarshalInto, RawMSS,
// ClampRawMSS, the original-destination search — steps with it. It returns
// the option's kind and the index just past it: one byte on for OptNOP, the
// end of the area for OptEnd (nothing after it is an option), and past the
// data, opts[i+2:end], for any other kind. ok is false when the length byte
// is missing, below two, or reaches past the area.
func nextOption(opts []byte, i int) (kind byte, end int, ok bool) {
	switch kind = opts[i]; {
	case kind == OptEnd:
		return kind, len(opts), true
	case kind == OptNOP:
		return kind, i + 1, true
	case i+1 >= len(opts):
		return kind, i, false
	}
	l := int(opts[i+1])
	if l < 2 || i+l > len(opts) {
		return kind, i, false
	}
	return kind, i + l, true
}

// ComputeChecksum computes the TCP checksum of a marshaled segment over the
// IPv4 pseudo-header. Computing it over a segment whose checksum field is
// already filled yields zero for a valid segment.
func ComputeChecksum(src, dst ipv4.Addr, b []byte) uint16 {
	return splitChecksum(src, dst, b, len(b), 0) // all header; 0 sums nothing
}

func putU16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func getU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
