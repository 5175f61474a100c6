package apps

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// An HTTP/1.1-style keep-alive request/response application: the workload
// shape of the open-loop experiments (internal/loadgen). The protocol is a
// faithful subset of HTTP/1.1 framing — request line, headers, blank line,
// Content-Length-delimited bodies, persistent connections, and
// "Connection: close" — restricted to GET so both replicas of a failover
// pair produce byte-identical responses from the client's request stream
// alone, the property the paper's active replication requires.
//
// Requests name the reply size in the path: "GET /bytes/N HTTP/1.1". The
// server answers with a patterned body of N bytes. On the final request of
// a session the client sends "Connection: close" and the *server* closes
// first; the client's port leaves the tuple map as soon as its LAST-ACK is
// answered instead of lingering in TIME-WAIT, which is what lets an
// open-loop generator churn thousands of connections per second through
// one client stack's 16384 ephemeral ports.

// httpMaxHeader bounds a request or response head; longer heads are a
// protocol error and reset the connection.
const httpMaxHeader = 4096

// NewHTTPServer installs the keep-alive server on port. Pipelined requests
// are answered in arrival order; a malformed head, or one longer than
// httpMaxHeader, resets the connection.
func NewHTTPServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return serve(stack, port, stageHTTP)
}

// stageHTTP parses the first request head in s.req and stages its response.
func stageHTTP(s *server) int {
	head, _, ok := bytes.Cut(s.req[:min(len(s.req), httpMaxHeader)], []byte("\r\n\r\n"))
	if !ok {
		if len(s.req) >= httpMaxHeader {
			return -1 // the head cannot end within the bound
		}
		return 0
	}
	lines := strings.Split(string(head), "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) != 3 || fields[0] != "GET" || fields[2] != "HTTP/1.1" {
		return -1
	}
	size, ok := parseBytesPath(fields[1])
	if !ok {
		return -1
	}
	for _, l := range lines[1:] {
		if k, v, ok := strings.Cut(l, ":"); ok &&
			strings.EqualFold(strings.TrimSpace(k), "Connection") &&
			strings.EqualFold(strings.TrimSpace(v), "close") {
			s.closing = true
		}
	}
	conn := "keep-alive"
	if s.closing {
		conn = "close"
	}
	s.reply = fmt.Appendf(s.reply[:0], "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n", size, conn)
	s.bodyAt, s.bodyN = 0, size
	return len(head) + 4
}

// parseBytesPath extracts N from "/bytes/N".
func parseBytesPath(p string) (int64, bool) {
	const prefix = "/bytes/"
	if !strings.HasPrefix(p, prefix) {
		return 0, false
	}
	n, err := strconv.ParseInt(p[len(prefix):], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// HTTPClient issues sequential GETs over one connection and reports each
// response's client-visible completion. It is the session half of the
// open-loop generator: requests may be queued before the connection is
// established (they ride the handshake), so the first response's latency
// includes connection setup, exactly what a user behind a crashed primary
// experiences.
type HTTPClient struct {
	Conn *tcp.Conn

	// Got counts verified body bytes delivered across all responses.
	Got int64
	// Responses counts completed responses.
	Responses int64
	// BadBody is true if any body byte failed pattern verification.
	BadBody bool
	// OnClosed, when set, observes the connection's full close (the tcp
	// OnClose slot itself belongs to the client).
	OnClosed func(error)

	sched *sim.Scheduler
	head  []byte

	want    int64 // body bytes outstanding for the current response
	bodyLen int64 // current response's Content-Length
	inBody  bool
	onDone  func()
}

// NewHTTPClient dials the server. Get may be called immediately.
func NewHTTPClient(stack *tcp.Stack, sched *sim.Scheduler, addr ipv4.Addr, port uint16) (*HTTPClient, error) {
	conn, err := stack.Dial(addr, port)
	if err != nil {
		return nil, err
	}
	cl := &HTTPClient{Conn: conn, sched: sched}
	conn.OnReadable(cl.readable)
	conn.OnClose(func(err error) {
		if cl.OnClosed != nil {
			cl.OnClosed(err)
		}
	})
	return cl, nil
}

// Get requests an n-byte response; onDone fires when its last body byte
// arrives. Calls must be sequential: the next Get only after the previous
// onDone (HTTP/1.1 without pipelining). last adds Connection: close, after
// which the server closes the connection.
func (cl *HTTPClient) Get(n int64, last bool, onDone func()) {
	conn := "keep-alive"
	if last {
		conn = "close"
	}
	req := fmt.Sprintf("GET /bytes/%d HTTP/1.1\r\nHost: svc\r\nConnection: %s\r\n\r\n", n, conn)
	cl.onDone = onDone
	// The send buffer (64 KB) dwarfs a request line; a zero-byte accept can
	// only mean the connection is dead, which OnClose reports separately.
	_, _ = cl.Conn.Write([]byte(req))
}

func (cl *HTTPClient) readable() {
	for {
		buf := scratch(cl.Conn)
		n, err := cl.Conn.Read(buf)
		if n == 0 {
			if err != nil {
				cl.Conn.Close()
			}
			return
		}
		cl.feed(buf[:n])
	}
}

// feed advances the response parser: head until the blank line, then a
// Content-Length body, then back to head state for the next response.
func (cl *HTTPClient) feed(p []byte) {
	for len(p) > 0 {
		if !cl.inBody {
			cl.head = append(cl.head, p...)
			i := strings.Index(string(cl.head), "\r\n\r\n")
			if i < 0 {
				if len(cl.head) > httpMaxHeader {
					cl.Conn.Abort()
				}
				return
			}
			rest := cl.head[i+4:]
			cl.want = parseContentLength(string(cl.head[:i]))
			cl.bodyLen = cl.want
			cl.head = cl.head[:0]
			cl.inBody = true
			p = append([]byte(nil), rest...)
			if cl.want < 0 {
				cl.Conn.Abort()
				return
			}
			if cl.want == 0 {
				cl.finishResponse()
			}
			continue
		}
		n := int64(len(p))
		if n > cl.want {
			n = cl.want
		}
		if VerifyPattern(p[:n], cl.wantOffset()) >= 0 {
			cl.BadBody = true
		}
		cl.Got += n
		cl.want -= n
		p = p[n:]
		if cl.want == 0 {
			// p may be the loop's scratch, which the completion callback is
			// free to reuse; bytes past the body (none, without pipelining)
			// are copied out first.
			p = append([]byte(nil), p...)
			cl.finishResponse()
		}
	}
}

// wantOffset is the pattern offset of the next body byte: every response
// body restarts the deterministic pattern at zero.
func (cl *HTTPClient) wantOffset() int64 { return cl.bodyLen - cl.want }

func parseContentLength(head string) int64 {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "HTTP/1.1 200") {
		return -1
	}
	for _, l := range lines[1:] {
		if k, v, ok := strings.Cut(l, ":"); ok &&
			strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil || n < 0 {
				return -1
			}
			return n
		}
	}
	return -1
}

func (cl *HTTPClient) finishResponse() {
	cl.inBody = false
	cl.Responses++
	if done := cl.onDone; done != nil {
		cl.onDone = nil
		done()
	}
}
