package apps

import (
	"io"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// The request/reply workload of the paper's Figure 4: the client sends a
// 4-byte message and the server sends back a reply whose size the client
// chose; the measurement is the time from the client starting to send the
// request until it receives the last byte of the reply.

// NewReqReplyServer installs a server that reads 4-byte big-endian reply
// sizes and answers each with that many patterned bytes. Multiple requests
// per connection are served sequentially — deterministically, as active
// replication requires.
func NewReqReplyServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return stack.Listen(port, func(c *tcp.Conn) {
		srv := &reqReplyConn{c: c}
		c.OnReadable(srv.pump)
		c.OnWritable(srv.pump)
	})
}

type reqReplyConn struct {
	c       *tcp.Conn
	reqBuf  []byte
	replyN  int64 // bytes of current reply still to send
	replyAt int64 // pattern offset within current reply
	sawEOF  bool
}

func (s *reqReplyConn) pump() {
	for {
		// Finish the in-progress reply first.
		for s.replyN > 0 {
			m, err := sendPattern(s.c, s.replyAt, s.replyN)
			if err != nil {
				return
			}
			if m == 0 {
				return // wait for writability
			}
			s.replyN -= int64(m)
			s.replyAt += int64(m)
		}
		if s.sawEOF {
			s.c.Close()
			return
		}
		buf := scratch(s.c)
		n, err := s.c.Read(buf)
		if n > 0 {
			s.reqBuf = append(s.reqBuf, buf[:n]...)
		} else if err != nil {
			s.sawEOF = true
			continue
		} else {
			return
		}
		if len(s.reqBuf) >= 4 {
			size := int64(s.reqBuf[0])<<24 | int64(s.reqBuf[1])<<16 |
				int64(s.reqBuf[2])<<8 | int64(s.reqBuf[3])
			s.reqBuf = s.reqBuf[4:]
			s.replyN = size
			s.replyAt = 0
		}
	}
}

// ReqReplyClient issues sized requests over one connection and measures
// request-to-last-reply-byte latency.
type ReqReplyClient struct {
	Conn  *tcp.Conn
	sched *sim.Scheduler

	started   time.Duration
	want      int64
	got       int64
	onDone    func(elapsed time.Duration)
	connected bool
	pendingSz int64
}

// NewReqReplyClient dials the server; the connection is usable once
// established (requests issued earlier are queued).
func NewReqReplyClient(stack *tcp.Stack, sched *sim.Scheduler, addr ipv4.Addr, port uint16) (*ReqReplyClient, error) {
	conn, err := stack.Dial(addr, port)
	if err != nil {
		return nil, err
	}
	cl := &ReqReplyClient{Conn: conn, sched: sched}
	conn.OnEstablished(func() {
		cl.connected = true
		if cl.pendingSz > 0 {
			sz := cl.pendingSz
			cl.pendingSz = 0
			cl.issue(sz)
		}
	})
	conn.OnReadable(func() {
		for {
			n, err := conn.Read(scratch(conn))
			if n > 0 {
				cl.got += int64(n)
				if cl.got >= cl.want && cl.want > 0 {
					done := cl.onDone
					elapsed := sched.Now() - cl.started
					cl.want = 0
					if done != nil {
						done(elapsed)
					}
				}
				continue
			}
			if err == io.EOF {
				conn.Close()
			}
			return
		}
	})
	return cl, nil
}

// Request asks for a reply of size bytes; onDone receives the elapsed
// virtual time when the last reply byte arrives. Requests made before the
// connection is established are issued once it is; the measured interval
// starts when the request bytes enter the stack, matching the paper's
// "time between the client starting to send the 4-byte message and the
// client receiving the last byte of the reply".
func (cl *ReqReplyClient) Request(size int64, onDone func(elapsed time.Duration)) {
	cl.want = size
	cl.got = 0
	cl.onDone = onDone
	if !cl.connected {
		cl.pendingSz = size
		return
	}
	cl.issue(size)
}

func (cl *ReqReplyClient) issue(size int64) {
	cl.started = cl.sched.Now()
	req := []byte{byte(size >> 24), byte(size >> 16), byte(size >> 8), byte(size)}
	_, _ = cl.Conn.Write(req)
}
