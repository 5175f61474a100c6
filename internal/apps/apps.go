// Package apps provides the deterministic server applications and client
// workload generators used by the examples and the benchmark harness: an
// echo server, bulk stream sources and sinks, a request/reply server, an
// HTTP/1.1 keep-alive server and client, and a simplified FTP server and
// client (the paper's real-world application). A stream of pattern bytes
// has one sender, Transfer, whether a client uploads, PushServer pushes or
// FTP moves a file, and one checking reader, Receiver.
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

// echoConn is the echo server's per-connection pump.
type echoConn struct {
	c       *tcp.Conn
	pending []byte
	sawEOF  bool
}

func (e *echoConn) pump() {
	for {
		// Flush pending bytes first so reads don't overrun the send buffer.
		for len(e.pending) > 0 {
			n, err := e.c.Write(e.pending)
			if err != nil {
				return
			}
			if n == 0 {
				return // wait for OnWritable
			}
			e.pending = e.pending[n:]
		}
		if e.sawEOF {
			e.c.Close()
			return
		}
		buf := scratch(e.c)
		n, err := e.c.Read(buf)
		if n > 0 {
			e.pending = append(e.pending, buf[:n]...)
			continue
		}
		if err != nil { // io.EOF or a terminal error
			e.sawEOF = true
			continue
		}
		return // no data yet
	}
}

// NewEchoServer installs an echo service: every accepted connection has its
// bytes reflected back until the client half-closes, then the server closes
// its direction. Echo is trivially deterministic, making it the canonical
// replicated test application.
func NewEchoServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return stack.Listen(port, func(c *tcp.Conn) {
		e := &echoConn{c: c}
		c.OnReadable(e.pump)
		c.OnWritable(e.pump)
	})
}
