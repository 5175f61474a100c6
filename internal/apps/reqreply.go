package apps

import (
	"encoding/binary"
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
// sizes and answers each with that many patterned bytes. Requests on one
// connection, pipelined or not, are answered in arrival order, one after
// another — deterministically, as active replication requires.
func NewReqReplyServer(stack *tcp.Stack, port uint16) (*tcp.Listener, error) {
	return serve(stack, port, func(s *server) int {
		if len(s.req) < 4 {
			return 0
		}
		s.bodyAt, s.bodyN = 0, int64(binary.BigEndian.Uint32(s.req))
		return 4
	})
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
