package obs

import (
	"encoding/binary"
	"io"

	"tcpfailover/internal/ipv4"
)

// The recorder dumps to the standard pcap format so the simulated traffic
// opens in tcpdump / Wireshark / tshark. Packets are written as raw IPv4
// datagrams (LINKTYPE_RAW = 101): the simulation's Ethernet framing carries
// no information the IP layer doesn't, and raw IP keeps the files
// self-describing. Timestamps are the simulation's virtual nanoseconds, so
// the nanosecond-resolution pcap magic is used.

const (
	pcapMagicNano = 0xa1b23c4d // nanosecond-resolution pcap
	linktypeRaw   = 101        // LINKTYPE_RAW: raw IPv4/IPv6
	pcapSnapLen   = 65535
)

// WritePcap writes the records as a nanosecond-resolution pcap stream.
func WritePcap(w io.Writer, recs []Record) error {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], pcapMagicNano)
	le.PutUint16(hdr[4:], 2) // version 2.4
	le.PutUint16(hdr[6:], 4)
	// thiszone, sigfigs: zero.
	le.PutUint32(hdr[16:], pcapSnapLen)
	le.PutUint32(hdr[20:], linktypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rh [16]byte
	for _, r := range recs {
		pkt := ipv4.Marshal(r.Hdr, r.Payload)
		ns := uint64(r.Time)
		le.PutUint32(rh[0:], uint32(ns/1e9))
		le.PutUint32(rh[4:], uint32(ns%1e9))
		le.PutUint32(rh[8:], uint32(len(pkt)))              // captured length
		le.PutUint32(rh[12:], uint32(ipv4.HeaderLen+r.Len)) // original length
		if _, err := w.Write(rh[:]); err != nil {
			return err
		}
		if _, err := w.Write(pkt); err != nil {
			return err
		}
	}
	return nil
}
