package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Pure-Go capture-file framing verification, used by the CI pcap smoke job
// (no tcpdump/tshark in the runner image) and by pcapcheck. The checks are
// structural: magic and version, record framing that lands exactly on EOF,
// and every packet parseable as an IPv4 datagram.

// ErrBadCapture wraps all framing verification failures.
var ErrBadCapture = errors.New("obs: bad capture file")

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadCapture, fmt.Sprintf(format, args...))
}

// checkRawIP validates one captured packet as an IPv4 datagram.
func checkRawIP(pkt []byte) error {
	if len(pkt) < 20 {
		return badf("packet shorter than an IPv4 header (%d bytes)", len(pkt))
	}
	if pkt[0]>>4 != 4 {
		return badf("IP version %d, want 4", pkt[0]>>4)
	}
	if ihl := int(pkt[0]&0x0f) * 4; ihl < 20 {
		return badf("IHL %d below minimum", ihl)
	}
	if totalLen := int(binary.BigEndian.Uint16(pkt[2:4])); totalLen != len(pkt) {
		return badf("IP total length %d != captured %d", totalLen, len(pkt))
	}
	return nil
}

// VerifyPcap checks a classic pcap stream and returns its packet count.
func VerifyPcap(r io.Reader) (int, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, badf("global header: %v", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != pcapMagicNano {
		return 0, badf("magic %#x, want %#x (nanosecond pcap)", magic, pcapMagicNano)
	}
	if maj, minor := le.Uint16(hdr[4:]), le.Uint16(hdr[6:]); maj != 2 || minor != 4 {
		return 0, badf("version %d.%d, want 2.4", maj, minor)
	}
	if lt := le.Uint32(hdr[20:]); lt != linktypeRaw {
		return 0, badf("linktype %d, want %d (LINKTYPE_RAW)", lt, linktypeRaw)
	}
	snap := le.Uint32(hdr[16:])
	n := 0
	var rh [16]byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, badf("record %d header: %v", n, err)
		}
		incl := le.Uint32(rh[8:])
		orig := le.Uint32(rh[12:])
		if incl > snap {
			return n, badf("record %d: captured %d exceeds snaplen %d", n, incl, snap)
		}
		if incl > orig {
			return n, badf("record %d: captured %d exceeds original %d", n, incl, orig)
		}
		pkt := make([]byte, incl)
		if _, err := io.ReadFull(r, pkt); err != nil {
			return n, badf("record %d data: %v", n, err)
		}
		if err := checkRawIP(pkt); err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
		n++
	}
}
