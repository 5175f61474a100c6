// Package ipv4 implements the simulated Internet Protocol layer: addresses,
// header marshaling with checksums, and longest-prefix-match routing. The
// routers that sit between the paper's client and servers operate at this
// layer and have no knowledge of TCP.
package ipv4

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"tcpfailover/internal/checksum"
	"tcpfailover/internal/netbuf"
)

// Addr is an IPv4 address.
type Addr uint32

// AddrFrom4 builds an address from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ipv4: parse %q: need 4 octets", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("ipv4: parse %q: bad octet %q", s, p)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// MustParseAddr is ParseAddr that panics on error; for constants in tests
// and examples.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// Prefix is a CIDR prefix.
type Prefix struct {
	Addr Addr
	Bits int
}

// PrefixFrom builds a prefix, masking the address to the prefix length.
func PrefixFrom(a Addr, bits int) Prefix {
	return Prefix{Addr: a & mask(bits), Bits: bits}
}

func mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return ^Addr(0)
	}
	return ^Addr(0) << (32 - bits)
}

// Contains reports whether the prefix covers a.
func (p Prefix) Contains(a Addr) bool { return a&mask(p.Bits) == p.Addr }

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// Protocol numbers carried in the header's protocol field.
const (
	ProtoTCP       = 6
	ProtoHeartbeat = 253 // experimentation protocol, used by the fault detector
)

// HeaderLen is the length of the fixed IPv4 header (no options).
const HeaderLen = 20

// DefaultTTL is the initial time-to-live for locally originated datagrams.
const DefaultTTL = 64

// Header is a parsed IPv4 header. Options are not modeled.
type Header struct {
	TotalLen int
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src      Addr
	Dst      Addr
}

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("ipv4: truncated datagram")
	ErrBadVersion  = errors.New("ipv4: bad version")
	ErrBadChecksum = errors.New("ipv4: bad header checksum")
)

// Marshal renders the header followed by payload into a fresh buffer,
// computing TotalLen and the header checksum.
func Marshal(h Header, payload []byte) []byte {
	b := make([]byte, HeaderLen+len(payload))
	h.TotalLen = len(b)
	b[0] = 0x45 // version 4, IHL 5
	b[2] = byte(h.TotalLen >> 8)
	b[3] = byte(h.TotalLen)
	b[4] = byte(h.ID >> 8)
	b[5] = byte(h.ID)
	b[8] = h.TTL
	b[9] = h.Protocol
	putAddr(b[12:16], h.Src)
	putAddr(b[16:20], h.Dst)
	sum := checksum.Sum(b[:HeaderLen])
	b[10] = byte(sum >> 8)
	b[11] = byte(sum)
	copy(b[HeaderLen:], payload)
	return b
}

// The hot path prepends headers into netbuf headroom; this must fit.
const _ uint = netbuf.Headroom - HeaderLen

// PrependHeader writes the header in place into pkt's headroom, in front of
// the data already in the buffer (the IP payload), computing TotalLen and
// the header checksum. It is the zero-copy counterpart of Marshal.
func PrependHeader(pkt *netbuf.Buffer, h Header) {
	h.TotalLen = HeaderLen + pkt.Len()
	b := pkt.Prepend(HeaderLen)
	// The store is pooled, so every byte must be written explicitly.
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0    // TOS
	b[2] = byte(h.TotalLen >> 8)
	b[3] = byte(h.TotalLen)
	b[4] = byte(h.ID >> 8)
	b[5] = byte(h.ID)
	b[6], b[7] = 0, 0 // flags / fragment offset
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	putAddr(b[12:16], h.Src)
	putAddr(b[16:20], h.Dst)
	sum := checksum.Sum(b[:HeaderLen])
	b[10] = byte(sum >> 8)
	b[11] = byte(sum)
}

// Unmarshal parses a datagram, verifying version and header checksum. The
// returned payload aliases b.
func Unmarshal(b []byte) (Header, []byte, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, ErrTruncated
	}
	if b[0]>>4 != 4 || int(b[0]&0x0f) != 5 {
		return Header{}, nil, ErrBadVersion
	}
	if checksum.Sum(b[:HeaderLen]) != 0 {
		return Header{}, nil, ErrBadChecksum
	}
	h := Header{
		TotalLen: int(b[2])<<8 | int(b[3]),
		ID:       uint16(b[4])<<8 | uint16(b[5]),
		TTL:      b[8],
		Protocol: b[9],
		Src:      getAddr(b[12:16]),
		Dst:      getAddr(b[16:20]),
	}
	if h.TotalLen < HeaderLen || h.TotalLen > len(b) {
		return Header{}, nil, ErrTruncated
	}
	return h, b[HeaderLen:h.TotalLen], nil
}

func putAddr(b []byte, a Addr) {
	b[0] = byte(a >> 24)
	b[1] = byte(a >> 16)
	b[2] = byte(a >> 8)
	b[3] = byte(a)
}

func getAddr(b []byte) Addr {
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// PutAddr writes an address in network byte order (for ARP packets etc.).
func PutAddr(b []byte, a Addr) { putAddr(b, a) }

// GetAddr reads an address in network byte order.
func GetAddr(b []byte) Addr { return getAddr(b) }

// Route is a routing-table entry. A zero NextHop means the destination is
// on-link (deliverable directly via ARP on the interface).
type Route struct {
	Dst     Prefix
	NextHop Addr
	IfIndex int
}

// Table is a longest-prefix-match routing table.
type Table struct {
	routes []Route
}

// Add inserts a route.
func (t *Table) Add(r Route) { t.routes = append(t.routes, r) }

// Lookup returns the most specific matching route.
func (t *Table) Lookup(dst Addr) (Route, bool) {
	best := -1
	var bestRoute Route
	for _, r := range t.routes {
		if r.Dst.Contains(dst) && r.Dst.Bits > best {
			best = r.Dst.Bits
			bestRoute = r
		}
	}
	return bestRoute, best >= 0
}
