package tcp

import (
	"encoding/binary"
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
)

// TestSteadyStateSendZeroAllocs pins down the hot send path: with the
// connection established and the window open, queueing a payload, emitting
// the segment, and processing the returning ACK must not allocate. The
// peer's ACKs are hand-encoded into a reused buffer so the harness itself
// stays off the heap.
func TestSteadyStateSendZeroAllocs(t *testing.T) {
	p := newPair(t, Config{})
	c, _ := p.connect(t, 80)

	// Swap in an output that seals and recycles the packet: the measured
	// loop acknowledges the data itself, so nothing needs to reach stack b.
	p.a.output = func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
		SealChecksum(src, dst, pkt.Bytes())
		pkt.Release()
		return nil
	}
	// Drain handshake stragglers (delayed ACKs, pipe deliveries).
	p.runUntil(t, func() bool { return p.sched.PendingEvents() <= 2 }, time.Second)

	payload := make([]byte, 512)
	ack := make([]byte, HeaderLen)
	sendAndAck := func() {
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		// Acknowledge everything outstanding with a hand-built pure ACK.
		ack[0] = byte(80 >> 8)
		binary.BigEndian.PutUint16(ack[0:2], 80)                // src port (peer)
		binary.BigEndian.PutUint16(ack[2:4], c.tuple.LocalPort) // dst port
		binary.BigEndian.PutUint32(ack[4:8], uint32(c.rcvNxt))  // seq
		binary.BigEndian.PutUint32(ack[8:12], uint32(c.sndNxt)) // ack
		ack[12] = byte(HeaderLen/4) << 4                        // data offset
		ack[13] = byte(FlagACK)
		binary.BigEndian.PutUint16(ack[14:16], 65535) // window
		binary.BigEndian.PutUint16(ack[16:18], 0)     // checksum (sealed below)
		binary.BigEndian.PutUint16(ack[18:20], 0)     // urgent
		SealChecksum(p.bAddr, p.aAddr, ack)
		p.a.Input(p.bAddr, p.aAddr, ack)
		if c.sndUna != c.sndNxt {
			t.Fatalf("ACK not consumed: sndUna %v, sndNxt %v", c.sndUna, c.sndNxt)
		}
	}
	sendAndAck() // warm pools and ring growth outside the measurement

	if allocs := testing.AllocsPerRun(200, sendAndAck); allocs > 0 {
		t.Errorf("steady-state send allocates %.1f times per segment, want 0", allocs)
	}
}
