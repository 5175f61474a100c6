package apps

import (
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// httpPair is hostPair with an HTTP server on the first host.
func httpPair(t *testing.T) (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	t.Helper()
	sched, srv, cl := hostPair()
	if _, err := NewHTTPServer(srv.TCP(), 80); err != nil {
		t.Fatal(err)
	}
	return sched, srv, cl
}

// TestHTTPKeepAliveSession drives three sequential GETs over one connection
// and checks framing, pattern bodies, and the server-side close on the last
// response.
func TestHTTPKeepAliveSession(t *testing.T) {
	sched, _, cl := httpPair(t)
	c, err := NewHTTPClient(cl.TCP(), sched, ipv4.MustParseAddr("10.9.0.1"), 80)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	c.OnClosed = func(error) { closed = true }
	sizes := []int64{0, 777, 64 * 1024}
	var issue func(i int)
	issue = func(i int) {
		c.Get(sizes[i], i == len(sizes)-1, func() {
			if i < len(sizes)-1 {
				issue(i + 1)
			}
		})
	}
	issue(0)
	if err := sched.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Responses != 3 {
		t.Fatalf("responses = %d, want 3", c.Responses)
	}
	var want int64
	for _, s := range sizes {
		want += s
	}
	if c.Got != want || c.BadBody {
		t.Fatalf("got %d body bytes (bad=%v), want %d clean", c.Got, c.BadBody, want)
	}
	if !closed {
		t.Fatal("connection still open after Connection: close response")
	}
}

// TestHTTPRequestBeforeEstablished queues the GET at dial time: it must ride
// the handshake and complete normally — the property that lets the open-loop
// generator measure first-request latency from the arrival instant.
func TestHTTPRequestBeforeEstablished(t *testing.T) {
	sched, _, cl := httpPair(t)
	c, err := NewHTTPClient(cl.TCP(), sched, ipv4.MustParseAddr("10.9.0.1"), 80)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	c.Get(1234, true, func() { done = true })
	if err := sched.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !done || c.Got != 1234 || c.BadBody {
		t.Fatalf("done=%v got=%d bad=%v, want 1234 clean bytes", done, c.Got, c.BadBody)
	}
}

// TestHTTPServerClosesFirst pins the port-recycling property: after a
// Connection: close exchange the *client's* tuple must leave its stack (the
// client must not be the TIME-WAIT side), so churned ephemeral ports free
// promptly.
func TestHTTPServerClosesFirst(t *testing.T) {
	sched, _, cl := httpPair(t)
	c, err := NewHTTPClient(cl.TCP(), sched, ipv4.MustParseAddr("10.9.0.1"), 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Get(100, true, nil)
	if err := sched.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.TCP().Conns()); n != 0 {
		t.Errorf("client still holds %d conns after close (TIME-WAIT on the wrong side?)", n)
	}
}

// TestHTTPMalformedRequest: a garbage request line must reset the
// connection, not wedge the parser.
func TestHTTPMalformedRequest(t *testing.T) {
	sched, _, cl := httpPair(t)
	conn, err := cl.TCP().Dial(ipv4.MustParseAddr("10.9.0.1"), 80)
	if err != nil {
		t.Fatal(err)
	}
	reset, got := false, 0
	conn.OnClose(func(err error) { reset = err != nil })
	conn.OnReadable(func() {
		n, _ := conn.Read(scratch(conn))
		got += n
	})
	conn.OnEstablished(func() {
		_, _ = conn.Write([]byte("BREW /coffee HTCPCP/1.0\r\n\r\n"))
	})
	if err := sched.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !reset {
		t.Error("malformed request did not reset the connection")
	}
	if got != 0 {
		t.Errorf("garbage drew %d response bytes, want none", got)
	}
}
