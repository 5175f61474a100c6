package apps

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"tcpfailover/internal/tcp"
)

// TestPipelinedRequestsAnswered writes two requests in one Write to each
// server on the one server loop and checks that both replies arrive, in
// order and byte for byte. The loop stages a reply from request bytes it
// has already read before reading more, so a second request that arrives
// in the same read as the first is answered too.
func TestPipelinedRequestsAnswered(t *testing.T) {
	pattern := func(at, n int) []byte {
		p := make([]byte, n)
		Pattern(p, int64(at))
		return p
	}
	httpHead := func(n int, conn string) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n", n, conn)
	}
	for _, tc := range []struct {
		name   string
		listen func(*tcp.Stack, uint16) (*tcp.Listener, error)
		req    []byte
		want   []byte
	}{
		{"echo", NewEchoServer, pattern(0, 300), pattern(0, 300)},
		{"reqreply", NewReqReplyServer,
			[]byte{0, 0, 0, 100, 0, 1, 0x86, 0xa0}, // 100, then 100 000
			bytes.Join([][]byte{pattern(0, 100), pattern(0, 100000)}, nil)},
		{"http", NewHTTPServer,
			[]byte("GET /bytes/100 HTTP/1.1\r\nHost: svc\r\nConnection: keep-alive\r\n\r\n" +
				"GET /bytes/100000 HTTP/1.1\r\nHost: svc\r\nConnection: close\r\n\r\n"),
			bytes.Join([][]byte{[]byte(httpHead(100, "keep-alive")), pattern(0, 100),
				[]byte(httpHead(100000, "close")), pattern(0, 100000)}, nil)},
	} {
		sched, srv, cl := hostPair()
		if _, err := tc.listen(srv.TCP(), 7); err != nil {
			t.Fatal(err)
		}
		conn, err := cl.TCP().Dial(pairServerAddr, 7)
		if err != nil {
			t.Fatal(err)
		}
		conn.OnEstablished(func() {
			if n, err := conn.Write(tc.req); n != len(tc.req) || err != nil {
				t.Errorf("%s: wrote %d of %d request bytes (%v)", tc.name, n, len(tc.req), err)
			}
			conn.Close()
		})
		var got []byte
		eof := false
		conn.OnReadable(func() {
			for {
				buf := scratch(conn)
				n, err := conn.Read(buf)
				got = append(got, buf[:n]...)
				if n == 0 {
					eof = eof || err == io.EOF
					return
				}
			}
		})
		if err := sched.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !eof || !bytes.Equal(got, tc.want) {
			t.Errorf("%s: got %d of %d reply bytes (equal %v), end of stream %v; want every byte, in order, then the end",
				tc.name, len(got), len(tc.want), bytes.Equal(got, tc.want), eof)
		}
	}
}
