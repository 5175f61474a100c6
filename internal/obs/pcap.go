package obs

import (
	"encoding/binary"
	"io"

	"tcpfailover/internal/ipv4"
)

// The recorder dumps to standard capture formats so the simulated traffic
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

// pcapng block types.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006
)

// WritePcapNG writes the records as a pcapng stream: one section header,
// one raw-IP interface with nanosecond timestamp resolution, and one
// enhanced packet block per record.
func WritePcapNG(w io.Writer, recs []Record) error {
	le := binary.LittleEndian

	// Section Header Block: type, length, byte-order magic, version 1.0,
	// unknown section length, no options.
	var shb [28]byte
	le.PutUint32(shb[0:], blockSHB)
	le.PutUint32(shb[4:], 28)
	le.PutUint32(shb[8:], 0x1A2B3C4D)
	le.PutUint16(shb[12:], 1) // major
	le.PutUint16(shb[14:], 0) // minor
	le.PutUint64(shb[16:], ^uint64(0))
	le.PutUint32(shb[24:], 28)
	if _, err := w.Write(shb[:]); err != nil {
		return err
	}

	// Interface Description Block with an if_tsresol=9 option (timestamps
	// in nanoseconds; the default would be microseconds).
	var idb [28]byte
	le.PutUint32(idb[0:], blockIDB)
	le.PutUint32(idb[4:], 28)
	le.PutUint16(idb[8:], linktypeRaw)
	le.PutUint32(idb[12:], pcapSnapLen)
	le.PutUint16(idb[16:], 9) // option: if_tsresol
	le.PutUint16(idb[18:], 1) // length 1
	idb[20] = 9               // 10^-9
	// 3 pad bytes, then opt_endofopt (0,0) and trailing total length.
	le.PutUint32(idb[24:], 28)
	if _, err := w.Write(idb[:]); err != nil {
		return err
	}

	var bh [28]byte // EPB fixed part
	var pad [4]byte
	for _, r := range recs {
		pkt := ipv4.Marshal(r.Hdr, r.Payload)
		padded := (len(pkt) + 3) &^ 3
		total := 32 + padded // 28 fixed + data + trailing length
		ns := uint64(r.Time)
		le.PutUint32(bh[0:], blockEPB)
		le.PutUint32(bh[4:], uint32(total))
		le.PutUint32(bh[8:], 0) // interface 0
		le.PutUint32(bh[12:], uint32(ns>>32))
		le.PutUint32(bh[16:], uint32(ns))
		le.PutUint32(bh[20:], uint32(len(pkt)))
		le.PutUint32(bh[24:], uint32(ipv4.HeaderLen+r.Len))
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if _, err := w.Write(pkt); err != nil {
			return err
		}
		if _, err := w.Write(pad[:padded-len(pkt)]); err != nil {
			return err
		}
		var tl [4]byte
		le.PutUint32(tl[:], uint32(total))
		if _, err := w.Write(tl[:]); err != nil {
			return err
		}
	}
	return nil
}
