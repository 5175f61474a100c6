// Package trace renders flight-recorder records (obs.Record) as
// tcpdump-like text lines. It captures nothing itself: failover-trace
// attaches one obs.Recorder to the traced hosts and formats what it holds.
package trace

import (
	"fmt"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// Stamp renders a virtual time the way every trace line starts.
func Stamp(d time.Duration) string { return fmt.Sprintf("%12.6f", d.Seconds()) }

// Line renders one record as a full trace line: time, capturing host,
// direction from that host's viewpoint, and the datagram.
func Line(r obs.Record) string {
	dir := "rx"
	if r.Dir == obs.DirTx {
		dir = "tx"
	}
	return fmt.Sprintf("%s %-9s %-2s %s\n", Stamp(r.Time), r.Host, dir, Format(r))
}

// Format renders the record's datagram tcpdump-style. Lengths come from
// r.Len — the recorder keeps only a snapshot of the payload — and TCP
// options from the header bytes alone, so a record cut at the snap length
// renders exactly as the full segment would.
func Format(r obs.Record) string {
	hdr, b := r.Hdr, r.Payload
	switch hdr.Protocol {
	case ipv4.ProtoTCP:
		if len(b) < tcp.HeaderLen {
			return fmt.Sprintf("%s > %s: TCP <truncated>", hdr.Src, hdr.Dst)
		}
		flags := tcp.RawFlags(b)
		dataLen := r.Len - tcp.RawHeaderLen(b)
		s := fmt.Sprintf("%s.%d > %s.%d: Flags [%s], seq %d",
			hdr.Src, tcp.RawSrcPort(b), hdr.Dst, tcp.RawDstPort(b),
			flags, uint32(tcp.RawSeq(b)))
		if dataLen > 0 {
			s += fmt.Sprintf(":%d", uint32(tcp.RawSeq(b))+uint32(dataLen))
		}
		if flags.Has(tcp.FlagACK) {
			s += fmt.Sprintf(", ack %d", uint32(tcp.RawAck(b)))
		}
		s += fmt.Sprintf(", win %d", tcp.RawWindow(b))
		// Unverified, so the cut payload does not matter: only the header
		// bytes, which the snapshot always covers, are parsed for options.
		if seg, err := tcp.Unmarshal(hdr.Src, hdr.Dst, b, false); err == nil {
			if mss, ok := seg.MSS(); ok {
				s += fmt.Sprintf(", mss %d", mss)
			}
			if orig, ok := seg.OrigDst(); ok {
				s += fmt.Sprintf(", origdst %s", orig)
			}
		}
		if dataLen > 0 {
			s += fmt.Sprintf(", length %d", dataLen)
		}
		return s
	case ipv4.ProtoHeartbeat:
		return fmt.Sprintf("%s > %s: heartbeat", hdr.Src, hdr.Dst)
	default:
		return fmt.Sprintf("%s > %s: proto %d, length %d", hdr.Src, hdr.Dst, hdr.Protocol, r.Len)
	}
}
