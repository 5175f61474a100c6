package loadgen

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// listenFlippingHTTP serves GET /bytes/N like apps.NewHTTPServer (bodies
// small enough for one Write), except that it inverts the middle byte of
// every body when corrupt is set.
func listenFlippingHTTP(t *testing.T, stack *tcp.Stack, port uint16, corrupt bool) {
	t.Helper()
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		var head []byte
		c.OnReadable(func() {
			buf := make([]byte, 4096)
			for {
				n, err := c.Read(buf)
				if n == 0 {
					if err != nil {
						c.Close()
					}
					return
				}
				head = append(head, buf[:n]...)
				i := strings.Index(string(head), "\r\n\r\n")
				if i < 0 {
					continue
				}
				req := string(head[:i])
				head = head[i+4:]
				var size int
				if _, err := fmt.Sscanf(req, "GET /bytes/%d HTTP/1.1", &size); err != nil {
					t.Errorf("bad request %q: %v", req, err)
					c.Abort()
					return
				}
				body := make([]byte, size)
				apps.Pattern(body, 0)
				if corrupt {
					body[size/2] ^= 0xff
				}
				resp := append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)), body...)
				if m, err := c.Write(resp); err != nil || m != len(resp) {
					t.Errorf("response write: %d of %d bytes, %v", m, len(resp), err)
				}
				if strings.Contains(req, "Connection: close") {
					c.Close()
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorCountsBadBodyAsFailed: a response that arrives complete but
// fails pattern verification is a failed request, and its bytes are not
// "verified body bytes".
func TestGeneratorCountsBadBodyAsFailed(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		sched := sim.New(5)
		seg := ethernet.NewSegment(sched, ethernet.Config{})
		pfx := ipv4.PrefixFrom(ipv4.MustParseAddr("10.9.0.0"), 24)
		srvAddr := ipv4.MustParseAddr("10.9.0.1")
		srv := netstack.NewHost(sched, "server", netstack.DefaultProfile())
		srv.AttachIface(seg, ethernet.MAC{2, 0, 0, 9, 0, 1}, srvAddr, pfx)
		cl := netstack.NewHost(sched, "client", netstack.DefaultProfile())
		cl.AttachIface(seg, ethernet.MAC{2, 0, 0, 9, 0, 2}, ipv4.MustParseAddr("10.9.0.2"), pfx)
		listenFlippingHTTP(t, srv.TCP(), 80, corrupt)

		const size = 2000
		g := New(Config{
			Sched: sched, Stack: cl.TCP(), Addr: srvAddr, Port: 80,
			Spec: Spec{
				Arrivals: Poisson{Rate: 200},
				Session:  Session{Requests: Fixed(2), Sizes: Fixed(size), Think: time.Millisecond},
			},
			Rand: fault.NewRand(9),
			Stop: 100 * time.Millisecond,
		})
		g.Start(0)
		if err := sched.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		st := &g.Stats
		if st.Requests < 10 || st.Outstanding() != 0 {
			t.Fatalf("corrupt=%v: %d requests issued, %d outstanding", corrupt, st.Requests, st.Outstanding())
		}
		if corrupt {
			if st.Completed != 0 || st.Failed != st.Requests || st.BytesIn != 0 || st.Lat.N() != 0 {
				t.Errorf("corrupt bodies: completed %d failed %d of %d, bytes in %d, latencies %d; want all failed",
					st.Completed, st.Failed, st.Requests, st.BytesIn, st.Lat.N())
			}
		} else if st.Failed != 0 || st.Completed != st.Requests || st.BytesIn != st.Requests*size {
			t.Errorf("clean bodies: completed %d failed %d of %d, bytes in %d",
				st.Completed, st.Failed, st.Requests, st.BytesIn)
		}
	}
}
