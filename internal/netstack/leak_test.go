package netstack_test

import (
	"io"
	"testing"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/tcp"
)

// TestNoBufferLeaks runs a lossy transfer end to end, lets both connections
// close, and then drains the scheduler to empty: every pooled packet buffer
// acquired along the way — including clones for multi-receiver delivery,
// retransmissions, and frames dropped by the lossy segment — must have been
// released exactly once. A missed release shows up as Live() > 0; a double
// release panics inside the run. The same goes for ring storage: with both
// connections closed and read dry, every take from the byte store — growth
// under reordering included, at 5 % loss — has had its return.
func TestNoBufferLeaks(t *testing.T) {
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)

	n := newTestNet(t, ethernet.Config{LossRate: 0.05})

	const total = 64 * 1024
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := n.b.TCP().Listen(7000, func(c *tcp.Conn) {
		buf := make([]byte, 8192)
		c.OnReadable(func() {
			for {
				m, err := c.Read(buf)
				if err == io.EOF {
					c.Close()
					return
				}
				if m == 0 {
					return
				}
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := n.a.TCP().Dial(n.bAddr, 7000)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	pump := func() {
		for sent < total {
			m, err := conn.Write(payload[sent:])
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if m == 0 {
				return
			}
			sent += m
		}
		conn.Close()
	}
	conn.OnEstablished(pump)
	conn.OnWritable(pump)

	// Drain everything: data, retransmissions, FIN handshakes, TIME_WAIT.
	for n.sched.Step() {
	}
	if sent != total {
		t.Fatalf("only queued %d of %d bytes", sent, total)
	}
	if live := netbuf.Live(); live != 0 {
		t.Errorf("%d packet buffers still live after the event queue drained, want 0", live)
	}
	if live := netbuf.LiveBytes(); live != 0 {
		t.Errorf("%d bytes of ring storage still live after both connections closed, want 0", live)
	}
}
