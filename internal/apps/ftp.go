package apps

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// A simplified File Transfer Protocol (RFC 959 subset) — the paper's
// real-world application (section 9). The server listens on the well-known
// control port 21; for each transfer the client opens a listening socket on
// an ephemeral port, announces it with PORT, and the server connects *from*
// port 20 to the client — a server-initiated connection that exercises the
// bridge's section 7.2 establishment path when the server is replicated.
//
// The in-memory file system is deterministic: file content is the shared
// byte Pattern, so the replicas produce identical data streams and
// receivers can verify integrity.

// FTP well-known ports.
const (
	FTPControlPort = 21
	FTPDataPort    = 20
)

// FTPFiles maps file names to sizes.
type FTPFiles map[string]int64

// DefaultFTPFiles returns the paper's Figure 6 file set (sizes in KB:
// 0.2, 1.3, 18.2, 144.9, 1738.1).
func DefaultFTPFiles() FTPFiles {
	return FTPFiles{
		"tiny.txt":   205,
		"small.txt":  1331,
		"medium.bin": 18637,
		"large.bin":  148378,
		"huge.bin":   1779814,
	}
}

// Names returns the file names sorted by size.
func (f FTPFiles) Names() []string {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return f[names[i]] < f[names[j]] })
	return names
}

// lineReader accumulates CRLF- (or LF-) terminated lines from a connection.
type lineReader struct {
	buf []byte
}

// feed appends raw bytes and returns any complete lines.
func (lr *lineReader) feed(p []byte) []string {
	lr.buf = append(lr.buf, p...)
	var lines []string
	for {
		i := -1
		for j, b := range lr.buf {
			if b == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			return lines
		}
		line := strings.TrimRight(string(lr.buf[:i]), "\r")
		lr.buf = lr.buf[i+1:]
		lines = append(lines, line)
	}
}

// NewFTPServer installs an FTP server on the control port.
func NewFTPServer(stack *tcp.Stack, files FTPFiles) (*tcp.Listener, error) {
	return stack.Listen(FTPControlPort, func(c *tcp.Conn) {
		sess := &ftpSession{stack: stack, files: files, ctrl: c}
		c.OnReadable(sess.onCtrlReadable)
		sess.reply("220 Service ready")
	})
}

type ftpSession struct {
	stack *tcp.Stack
	files FTPFiles
	ctrl  *tcp.Conn
	lr    lineReader

	dataAddr ipv4.Addr
	dataPort uint16

	busy    bool // a transfer is in progress; queue further commands
	pending []string
}

func (s *ftpSession) reply(line string) {
	// Control replies are short; the send buffer always has room.
	_, _ = s.ctrl.Write([]byte(line + "\r\n"))
}

func (s *ftpSession) onCtrlReadable() {
	for {
		buf := scratch(s.ctrl)
		n, err := s.ctrl.Read(buf)
		if n > 0 {
			for _, line := range s.lr.feed(buf[:n]) {
				if s.busy {
					s.pending = append(s.pending, line)
				} else {
					s.command(line)
				}
			}
			continue
		}
		if err == io.EOF {
			s.ctrl.Close()
		}
		return
	}
}

func (s *ftpSession) drainPending() {
	for !s.busy && len(s.pending) > 0 {
		line := s.pending[0]
		s.pending = s.pending[1:]
		s.command(line)
	}
}

func (s *ftpSession) command(line string) {
	verb, arg, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "USER":
		s.reply("331 User name okay, need password")
	case "PASS":
		s.reply("230 User logged in")
	case "PORT":
		addr, port, err := parsePortArg(arg)
		if err != nil {
			s.reply("501 Syntax error in parameters")
			return
		}
		s.dataAddr, s.dataPort = addr, port
		s.reply("200 PORT command successful")
	case "LIST":
		s.reply("150 Here comes the directory listing")
		for _, name := range s.files.Names() {
			s.reply(fmt.Sprintf(" %-12s %d", name, s.files[name]))
		}
		s.reply("226 Directory send OK")
	case "RETR":
		size, ok := s.files[arg]
		if !ok {
			s.reply("550 File not found")
			return
		}
		s.transfer(func(data *tcp.Conn) { s.sendFile(data, size) })
	case "STOR":
		s.transfer(s.recvFile)
	case "QUIT":
		s.reply("221 Goodbye")
		s.ctrl.Close()
	default:
		s.reply("502 Command not implemented")
	}
}

// transfer opens the server-initiated data connection from port 20 and runs
// the given direction-specific handler.
func (s *ftpSession) transfer(run func(data *tcp.Conn)) {
	if s.dataPort == 0 {
		s.reply("425 Use PORT first")
		return
	}
	s.reply("150 Opening data connection")
	data, err := s.stack.DialFrom(FTPDataPort, s.dataAddr, s.dataPort)
	if err != nil {
		s.reply("425 Can't open data connection")
		return
	}
	s.busy = true
	run(data)
}

func (s *ftpSession) finishTransfer(ok bool) {
	if ok {
		s.reply("226 Transfer complete")
	} else {
		s.reply("426 Connection closed; transfer aborted")
	}
	s.busy = false
	s.drainPending()
}

// sendFile streams the file on the data connection; 226 is sent once the
// last byte is in the stack, while the connection's TIME-WAIT lingers
// independently.
func (s *ftpSession) sendFile(data *tcp.Conn, size int64) {
	tr := &Transfer{Total: size}
	finish := s.finishOnce()
	tr.OnSent = func() { finish(true) }
	tr.OnClosed = func(err error) { finish(err == nil && tr.Sent == tr.Total) }
	tr.stream(data, s.stack.Scheduler())
}

func (s *ftpSession) recvFile(data *tcp.Conn) {
	rx := NewReceiver(data, s.stack.Scheduler())
	finish := s.finishOnce()
	rx.OnComplete = func() { finish(true) }
	data.OnClose(func(err error) { finish(err == nil) })
}

// finishOnce returns the completion of one transfer, which replies once: a
// data connection's OnClose fires at its TIME-WAIT entry, which may come
// after the session's next transfer has begun.
func (s *ftpSession) finishOnce() func(ok bool) {
	finished := false
	return func(ok bool) {
		if !finished {
			finished = true
			s.finishTransfer(ok)
		}
	}
}

func parsePortArg(arg string) (ipv4.Addr, uint16, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != 6 {
		return 0, 0, fmt.Errorf("ftp: bad PORT %q", arg)
	}
	var nums [6]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 || v > 255 {
			return 0, 0, fmt.Errorf("ftp: bad PORT %q", arg)
		}
		nums[i] = v
	}
	addr := ipv4.AddrFrom4(byte(nums[0]), byte(nums[1]), byte(nums[2]), byte(nums[3]))
	return addr, uint16(nums[4])<<8 | uint16(nums[5]), nil
}

func formatPortArg(addr ipv4.Addr, port uint16) string {
	a := uint32(addr)
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d",
		byte(a>>24), byte(a>>16), byte(a>>8), byte(a), byte(port>>8), byte(port))
}

// FTPResult reports one completed client transfer.
type FTPResult struct {
	Name     string
	Bytes    int64
	RateKBps float64 // over the data phase, first event to data-conn close
	BadAt    int64   // pattern corruption offset for gets, -1 if clean
	Err      error
}

// FTPClient drives the simplified protocol against a (possibly replicated)
// server. Operations queue and execute sequentially, as interactive FTP
// clients do.
type FTPClient struct {
	stack     *tcp.Stack
	sched     *sim.Scheduler
	ownAddr   ipv4.Addr
	ctrl      *tcp.Conn
	lr        lineReader
	nextEphem uint16

	queue   []*ftpOp
	current *ftpOp
	// Done is invoked after QUIT completes and the control connection
	// closes.
	Done func()
	// PutPacing is each upload's Transfer pacing: the user-space client's
	// per-write cost (calibrated in EXPERIMENTS.md against the paper's
	// figure 6 put rates, which are send-call-bound for sub-buffer files).
	PutPacing Pacing
}

type ftpOp struct {
	kind    string // LOGIN, GET, PUT, QUIT
	name    string
	size    int64
	cb      func(FTPResult)
	stage   int
	started time.Duration
	rx      *Receiver // a GET's data connection
	tr      *Transfer // a PUT's data connection
	ended   bool      // data phase complete
	elapsed time.Duration
}

// NewFTPClient connects to the server's control port.
func NewFTPClient(stack *tcp.Stack, sched *sim.Scheduler, ownAddr, server ipv4.Addr) (*FTPClient, error) {
	ctrl, err := stack.Dial(server, FTPControlPort)
	if err != nil {
		return nil, err
	}
	c := &FTPClient{
		stack:     stack,
		sched:     sched,
		ownAddr:   ownAddr,
		ctrl:      ctrl,
		nextEphem: 40000,
	}
	ctrl.OnReadable(c.onCtrlReadable)
	ctrl.OnClose(func(error) {
		if c.Done != nil {
			c.Done()
		}
	})
	return c, nil
}

// Login queues a USER/PASS exchange.
func (c *FTPClient) Login(cb func(FTPResult)) { c.enqueue(&ftpOp{kind: "LOGIN", cb: cb}) }

// Get queues a download of name.
func (c *FTPClient) Get(name string, cb func(FTPResult)) {
	c.enqueue(&ftpOp{kind: "GET", name: name, cb: cb})
}

// Put queues an upload of size patterned bytes as name.
func (c *FTPClient) Put(name string, size int64, cb func(FTPResult)) {
	c.enqueue(&ftpOp{kind: "PUT", name: name, size: size, cb: cb})
}

// Quit queues session termination.
func (c *FTPClient) Quit() { c.enqueue(&ftpOp{kind: "QUIT"}) }

func (c *FTPClient) enqueue(op *ftpOp) {
	c.queue = append(c.queue, op)
	c.advance()
}

func (c *FTPClient) advance() {
	if c.current != nil || len(c.queue) == 0 {
		return
	}
	c.current = c.queue[0]
	c.queue = c.queue[1:]
	op := c.current
	switch op.kind {
	case "LOGIN":
		c.send("USER anonymous")
	case "GET", "PUT":
		port := c.nextEphem
		c.nextEphem++
		if err := c.openDataListener(op, port); err != nil {
			c.fail(op, err)
			return
		}
		c.send("PORT " + formatPortArg(c.ownAddr, port))
	case "QUIT":
		c.send("QUIT")
	}
}

func (c *FTPClient) send(line string) { _, _ = c.ctrl.Write([]byte(line + "\r\n")) }

func (c *FTPClient) fail(op *ftpOp, err error) {
	c.current = nil
	if op.cb != nil {
		op.cb(FTPResult{Name: op.name, Err: err})
	}
	c.advance()
}

func (c *FTPClient) complete(op *ftpOp) {
	r := FTPResult{Name: op.name, BadAt: -1}
	switch {
	case op.rx != nil:
		r.Bytes, r.BadAt = op.rx.Received, op.rx.BadAt
	case op.tr != nil:
		r.Bytes = op.tr.Sent
	}
	if op.elapsed > 0 {
		r.RateKBps = float64(r.Bytes) / 1024.0 / op.elapsed.Seconds()
	}
	c.current = nil
	if op.cb != nil {
		op.cb(r)
	}
	c.advance()
}

// openDataListener arranges the client-side data socket for one transfer:
// a GET reads it with a Receiver, a PUT streams on it with a Transfer paced
// by PutPacing.
func (c *FTPClient) openDataListener(op *ftpOp, port uint16) error {
	var lst *tcp.Listener
	lst, err := c.stack.Listen(port, func(data *tcp.Conn) {
		lst.Close() // single-use data socket
		if op.started == 0 {
			// Uploads time the send loop only (see the put-rate comment);
			// downloads already started their clock at the command.
			op.started = c.sched.Now()
		}
		// The data phase ends at EOF for a GET. A PUT's rate is measured
		// the way FTP clients report it: bytes over the duration of the
		// send loop, which returns when the stack has accepted the last
		// byte — not when it reaches the wire (cf. the paper's figure 6 put
		// rates exceeding the link bandwidth for small files). TIME-WAIT
		// lingers after either.
		endData := func() {
			if !op.ended {
				op.ended = true
				op.elapsed = c.sched.Now() - op.started
				c.maybeFinish(op)
			}
		}
		if op.kind == "GET" {
			op.rx = NewReceiver(data, c.sched)
			op.rx.OnComplete = endData
			data.OnClose(func(error) { endData() })
			return
		}
		op.tr = &Transfer{Total: op.size, pacing: c.PutPacing, OnSent: endData, OnClosed: func(error) { endData() }}
		op.tr.stream(data, c.sched)
	})
	return err
}

func (c *FTPClient) onCtrlReadable() {
	for {
		buf := scratch(c.ctrl)
		n, err := c.ctrl.Read(buf)
		if n > 0 {
			for _, line := range c.lr.feed(buf[:n]) {
				c.response(line)
			}
			continue
		}
		if err == io.EOF {
			c.ctrl.Close()
		}
		return
	}
}

func (c *FTPClient) response(line string) {
	op := c.current
	if op == nil || len(line) < 3 {
		return
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return // continuation line (e.g. LIST output)
	}
	if code == 220 {
		return // server greeting banner
	}
	switch op.kind {
	case "LOGIN":
		switch code {
		case 331:
			c.send("PASS guest")
		case 230:
			c.complete(op)
		default:
			c.fail(op, fmt.Errorf("ftp: login rejected: %s", line))
		}
	case "GET", "PUT":
		switch {
		case code == 200 && op.stage == 0: // PORT accepted
			op.stage = 1
			if op.kind == "GET" {
				// Download rates are measured from the moment the command
				// is issued, the way interactive clients report them (the
				// paper's small-file get rates include this round trip).
				op.started = c.sched.Now()
				c.send("RETR " + op.name)
			} else {
				c.send("STOR " + op.name)
			}
		case code == 150:
			// Data connection announced; timing starts at accept.
		case code == 226:
			op.stage = 2
			c.maybeFinish(op)
		case code >= 400:
			c.fail(op, fmt.Errorf("ftp: %s", line))
		}
	case "QUIT":
		if code == 221 {
			c.current = nil
			c.ctrl.Close()
		}
	}
}

// maybeFinish completes a transfer op once both the data phase has ended
// and the 226 reply has arrived.
func (c *FTPClient) maybeFinish(op *ftpOp) {
	if op.ended && op.stage == 2 {
		c.complete(op)
	}
}
