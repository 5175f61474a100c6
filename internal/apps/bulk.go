package apps

import (
	"io"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// SinkServer accepts connections and discards everything it receives,
// closing when the sender half-closes. It records per-connection byte
// counts (used by the client-to-server transfer experiments).
type SinkServer struct {
	Received int64
	Conns    int
}

// NewSinkServer installs a sink on port.
func NewSinkServer(stack *tcp.Stack, port uint16) (*SinkServer, error) {
	s := &SinkServer{}
	_, err := stack.Listen(port, func(c *tcp.Conn) {
		s.Conns++
		c.OnReadable(func() {
			for {
				n, err := c.Read(scratch(c))
				if n > 0 {
					s.Received += int64(n)
					continue
				}
				if err == io.EOF {
					c.Close()
				}
				return
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Transfer streams Total pattern bytes on one connection and then closes
// its sending direction: the package's one sender. NewBulkSend runs it on a
// connection it dials, a client upload; PushServer and FTP's RETR and PUT
// run it on the data connections they accept or open. It records the
// timestamps the paper's Figure 3 measures: when the application passed
// the last byte to the stack (SendDone) — "the send call returns when the
// application has passed the last byte to the stack, not when the last
// byte has been put on the wire" — and when the connection closed
// (Closed), by which time the receiver has acknowledged everything. The
// sender closes first, so Closed is its entry to TIME-WAIT: from then the
// connection holds nothing of the Transfer, and the stack lingers 2 MSL in
// a record of its own.
type Transfer struct {
	Conn        *tcp.Conn
	Total       int64
	Sent        int64
	Established time.Duration // virtual time the connection was established
	SendDone    time.Duration // virtual time the last byte entered the stack
	Closed      time.Duration
	Done        bool
	Err         error
	OnSent      func()
	OnClosed    func(error)

	sched  *sim.Scheduler
	pacing Pacing
	paced  bool // a pacing continuation is pending
}

// Pacing models the synchronous cost of the application's send path (system
// call plus user-to-kernel copy). The paper's Figure 3 measures the send
// call's duration, so the sub-buffer-size region of the curve is shaped by
// exactly this cost.
type Pacing struct {
	Fixed time.Duration // per send call
	PerKB time.Duration // copy cost per KByte
}

// Cost returns the send-path cost of accepting n bytes.
func (p Pacing) Cost(n int) time.Duration {
	return p.Fixed + time.Duration(int64(p.PerKB)*int64(n)/1024)
}

func (p Pacing) zero() bool { return p.Fixed == 0 && p.PerKB == 0 }

// NewBulkSend dials addr:port and streams total pattern bytes to it on a
// Transfer: a bulk client-to-server transfer.
func NewBulkSend(stack *tcp.Stack, sched *sim.Scheduler, addr ipv4.Addr, port uint16, total int64) (*Transfer, error) {
	return NewBulkSendPaced(stack, sched, addr, port, total, Pacing{})
}

// NewBulkSendPaced is NewBulkSend with an explicit send-path cost model.
func NewBulkSendPaced(stack *tcp.Stack, sched *sim.Scheduler, addr ipv4.Addr, port uint16, total int64, pacing Pacing) (*Transfer, error) {
	conn, err := stack.Dial(addr, port)
	if err != nil {
		return nil, err
	}
	return (&Transfer{Total: total, pacing: pacing}).stream(conn, sched), nil
}

// stream runs t on c and returns it. The caller sets t's Total, pacing and
// callbacks first: on a dialed connection the stream starts from
// OnEstablished, but on one already established it starts at once.
func (t *Transfer) stream(c *tcp.Conn, sched *sim.Scheduler) *Transfer {
	t.Conn, t.sched = c, sched
	c.OnWritable(t.pump)
	c.OnClose(func(err error) {
		t.Closed = sched.Now()
		if err != nil && t.Err == nil {
			t.Err = err
		}
		if t.OnClosed != nil {
			t.OnClosed(err)
		}
	})
	start := func() {
		t.Established = sched.Now()
		t.pump()
	}
	if c.State() == tcp.StateEstablished {
		start()
	} else {
		c.OnEstablished(start)
	}
	return t
}

// pump writes the pattern until the send buffer is full or a paced send
// call is pending, and closes once the last byte is in the stack.
func (t *Transfer) pump() {
	if t.paced {
		return // continuation already scheduled
	}
	for t.Sent < t.Total {
		m, err := sendPattern(t.Conn, t.Sent, t.Total-t.Sent)
		if err != nil {
			t.Err = err
			return
		}
		if m == 0 {
			return // wait for OnWritable
		}
		t.Sent += int64(m)
		if !t.pacing.zero() {
			t.paced = true
			t.sched.After(t.pacing.Cost(m), "bulk.sendcost", func() {
				t.paced = false
				t.pump()
			})
			return
		}
	}
	if !t.Done {
		t.Done = true
		t.SendDone = t.sched.Now()
		t.Conn.Close()
		if t.OnSent != nil {
			t.OnSent()
		}
	}
}

// NewPushServer installs a push server on port: every accepted connection
// at once streams size pattern bytes to the client on a Transfer, then
// closes. Used for server-to-client rate experiments (Figure 5's receive
// direction).
func NewPushServer(stack *tcp.Stack, port uint16, size int64) (*tcp.Listener, error) {
	return stack.Listen(port, func(c *tcp.Conn) {
		(&Transfer{Total: size}).stream(c, stack.Scheduler())
	})
}

// Receiver drains a connection, verifying the deterministic pattern, and
// reports totals: the package's one checking reader. It closes its end at
// EOF. PushServer's clients, FTP's GET and STOR, and the echo clients of
// failover-trace and the examples read with it.
type Receiver struct {
	Received   int64
	LastAt     time.Duration // when Received last grew
	BadAt      int64         // offset of first corruption, -1 if none
	EOF        bool
	EOFAt      time.Duration
	OnComplete func()
}

// NewReceiver attaches pattern-verifying drain logic to a connection,
// dialed or established.
func NewReceiver(c *tcp.Conn, sched *sim.Scheduler) *Receiver {
	r := &Receiver{BadAt: -1}
	c.OnReadable(func() {
		for {
			buf := scratch(c)
			n, err := c.Read(buf)
			if n > 0 {
				if r.BadAt < 0 {
					if i := VerifyPattern(buf[:n], r.Received); i >= 0 {
						r.BadAt = r.Received + int64(i)
					}
				}
				r.Received += int64(n)
				r.LastAt = sched.Now()
				continue
			}
			if err == io.EOF && !r.EOF {
				r.EOF = true
				r.EOFAt = sched.Now()
				c.Close()
				if r.OnComplete != nil {
					r.OnComplete()
				}
			}
			return
		}
	})
	return r
}
