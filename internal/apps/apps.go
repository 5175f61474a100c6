// Package apps provides the deterministic server applications and client
// workload generators used by the examples and the benchmark harness: an
// echo server, bulk stream sources and sinks, a request/reply server, an
// HTTP/1.1 keep-alive server and client, and a simplified FTP server and
// client (the paper's real-world application). A stream of pattern bytes
// has one sender, Transfer, whether a client uploads, a push server pushes
// or FTP moves a file, and one checking reader, Receiver. The echo,
// request/reply and HTTP servers share one server loop, which answers the
// requests on a connection one at a time in arrival order, pipelined or
// not.
//
// All applications are written against the event-driven socket API of
// internal/tcp and are deterministic on a per-connection basis, the
// property the paper's active replication requires: when a client connects
// and issues a request, both replicas produce byte-identical replies.
package apps

import (
	"bytes"

	"tcpfailover/internal/tcp"
)

// copyBufSize is the size of the scratch buffer the pump loops read into
// and generate payload in.
const copyBufSize = 32 * 1024

// scratch returns the copy buffer shared by every application on c's event
// loop, on every host and cell it runs. The loop runs one callback at a
// time and pumps run to completion, so sharing is race-free; the price is
// the application scratch rule: nothing read into or generated in the
// buffer may be relied on across a Write or a user callback, either of
// which may run another connection's pump. Readers copy out what they keep
// (lineReader, the HTTP heads) before calling on.
func scratch(c *tcp.Conn) []byte { return c.Scratch(copyBufSize) }

// patternRow is two periods of the byte sequence 131·k mod 256. The pattern
// byte at stream offset x is 131·x + 31·(x>>8) + 7·(x>>16) mod 256; within a
// 256-aligned run the last two terms are a constant c, and because
// 131·43 ≡ 1 (mod 256) adding c is the same as starting 43·c entries further
// along the row. So every run is a 256-byte window of this table: Pattern is
// a copy and VerifyPattern a compare. The table is an array in static
// storage, filled at package initialisation; it is never on the heap.
var patternRow = func() (row [512]byte) {
	for k := range row {
		row[k] = byte(131 * k)
	}
	return row
}()

// patternRun returns the pattern bytes from stream offset x to the end of
// x's 256-aligned run.
func patternRun(x int64) []byte {
	c := byte(31*(x>>8) + 7*(x>>16))
	return patternRow[int(43*c)+int(x&255):][:256-int(x&255)]
}

// Pattern fills p with a deterministic byte pattern seeded by off; both
// replicas generate identical streams, and receivers can verify integrity.
func Pattern(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, patternRun(off))
		p, off = p[n:], off+int64(n)
	}
}

// fillPattern is Pattern behind a variable so that the over-generation gate
// (TestSendPatternGeneratesOnce) can count the bytes the senders generate.
var fillPattern = Pattern

// VerifyPattern checks that p matches the deterministic pattern at off,
// returning the index of the first mismatch or -1.
func VerifyPattern(p []byte, off int64) int {
	for done := 0; done < len(p); {
		run := patternRun(off + int64(done))
		n := min(len(run), len(p)-done)
		if !bytes.Equal(p[done:done+n], run[:n]) {
			for i := 0; ; i++ { // the compare failed, so the loop ends
				if p[done+i] != run[i] {
					return done + i
				}
			}
		}
		done += n
	}
	return -1
}

// sendPattern is the one sender loop body: it generates the next pattern
// bytes of a stream at offset at with left bytes to go, no more of them
// than the send buffer will take, and writes them. Write accepts exactly
// min(len, SendFree()) bytes, so capping the length there changes nothing
// the protocol can see; Write is still called with nothing to send so that
// a closed connection reports its error.
func sendPattern(c *tcp.Conn, at, left int64) (int, error) {
	buf := scratch(c)
	buf = buf[:min(left, int64(c.SendFree()), int64(len(buf)))]
	fillPattern(buf, at)
	return c.Write(buf)
}

// server is the one loop behind every request/reply service: echo,
// request/reply and HTTP. Each protocol is a stage over it, which turns the
// first whole request in req into a staged reply. The loop writes the
// staged reply, literal bytes first and then pattern bytes; closes once the
// reply says so or the client has half-closed; otherwise stages the next
// reply from request bytes already read; and reads more only when no whole
// request is left. So requests are answered one at a time, in arrival
// order, however the client's writes were cut into reads: the same replies
// from both replicas, as active replication requires.
//
// Three servers stay off it. SinkServer sends no reply, and folding it in
// would copy every byte it reads into req on the bulk upload path. A push
// server's connection is a Transfer started at accept. FTP's control
// channel also replies from its data connections' callbacks
// (finishTransfer), outside any loop that reads requests.
type server struct {
	c *tcp.Conn
	// stage stages the reply to the first whole request in req and returns
	// that request's length, 0 if req holds no whole request, or -1 if the
	// request is malformed, which aborts the connection. The reply may
	// alias the request (echo's does): reads append past it, never over it.
	stage   func(s *server) int
	req     []byte // request bytes read and not yet answered
	reply   []byte // literal reply bytes still to write
	bodyAt  int64  // pattern offset of the next body byte
	bodyN   int64  // pattern body bytes still to write
	closing bool   // the staged reply ends the connection
	eof     bool   // the client has half-closed
}

// serve installs the server loop with the given stage on port.
func serve(stack *tcp.Stack, port uint16, stage func(s *server) int) (*tcp.Listener, error) {
	return stack.Listen(port, func(c *tcp.Conn) {
		s := &server{c: c, stage: stage}
		c.OnReadable(s.pump)
		c.OnWritable(s.pump)
	})
}

func (s *server) pump() {
	for {
		for len(s.reply) > 0 {
			n, err := s.c.Write(s.reply)
			if err != nil || n == 0 {
				return // n == 0: wait for OnWritable
			}
			s.reply = s.reply[n:]
		}
		for s.bodyN > 0 {
			n, err := sendPattern(s.c, s.bodyAt, s.bodyN)
			if err != nil || n == 0 {
				return
			}
			s.bodyAt += int64(n)
			s.bodyN -= int64(n)
		}
		if s.closing || s.eof {
			// The reply said so (HTTP's Connection: close, which puts
			// TIME-WAIT here, not on a churning client), or the client
			// half-closed.
			s.c.Close()
			return
		}
		if n := s.stage(s); n < 0 {
			s.c.Abort()
			return
		} else if n > 0 {
			s.req = s.req[n:]
			continue
		}
		buf := scratch(s.c)
		n, err := s.c.Read(buf)
		switch {
		case n > 0:
			s.req = append(s.req, buf[:n]...)
		case err != nil: // io.EOF or a terminal error
			s.eof = true
		default:
			return // no data yet
		}
	}
}

// NewEchoServer installs an echo service: every accepted connection has its
// bytes reflected back until the client half-closes, then the server closes
// its direction. Echo is trivially deterministic, making it the canonical
// replicated test application.
func NewEchoServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return serve(stack, port, func(s *server) int {
		s.reply = s.req // hand the bytes read over: each is copied once
		return len(s.req)
	})
}
