package tcp

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// State is a TCP connection state (RFC 793 section 3.2). One byte, so a
// Conn keeps it in the word its flags share.
type State uint8

// Connection states.
const (
	StateClosed State = iota + 1
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = map[State]string{
	StateClosed:      "CLOSED",
	StateListen:      "LISTEN",
	StateSynSent:     "SYN-SENT",
	StateSynReceived: "SYN-RECEIVED",
	StateEstablished: "ESTABLISHED",
	StateFinWait1:    "FIN-WAIT-1",
	StateFinWait2:    "FIN-WAIT-2",
	StateCloseWait:   "CLOSE-WAIT",
	StateClosing:     "CLOSING",
	StateLastAck:     "LAST-ACK",
	StateTimeWait:    "TIME-WAIT",
}

// String returns the RFC 793 state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Errors surfaced through the socket API.
var (
	ErrConnReset   = errors.New("tcp: connection reset by peer")
	ErrConnRefused = errors.New("tcp: connection refused")
	ErrTimeout     = errors.New("tcp: retransmission limit exceeded")
	ErrClosed      = errors.New("tcp: connection closed")
	ErrPortInUse   = errors.New("tcp: port already in use")
	ErrAborted     = errors.New("tcp: connection aborted")
	ErrNoRoute     = errors.New("tcp: no local address")
)

// Config tunes a Stack. The zero value selects defaults matching the
// paper's testbed era: 1460-byte MSS, 64 KB buffers, 200 ms delayed-ack
// timer, Reno congestion control.
type Config struct {
	MSS               int           // default 1460
	SendBufSize       int           // default 65535 (the paper's 64 KB send buffer)
	RecvBufSize       int           // default 65535
	DelayedAckTimeout time.Duration // default 200 ms (BSD heritage)
	DisableNagle      bool
	// ISS generates initial sequence numbers; default draws from the
	// scheduler RNG. The primary and secondary draw different values, which
	// is precisely what the bridge's Delta-seq machinery compensates for.
	ISS func(rng *rand.Rand) Seq
}

// The protocol constants no caller varies.
const (
	ackEveryN       = 2                      // ack every Nth full segment
	initialRTO      = time.Second            // before the first RTT sample
	minRTO          = 200 * time.Millisecond // floor of the estimator
	maxRTO          = 60 * time.Second       // ceiling of the estimator and its backoff
	maxRetries      = 12                     // retransmission timeouts in a row before abort
	timeWait        = 60 * time.Second       // TIME-WAIT linger (2 MSL compressed)
	initialCwndSegs = 2                      // Reno's initial window, in segments
	// maxCwnd caps the congestion window where it grows (4.4BSD's
	// TCP_MAXWIN). Without window scaling no peer advertises more, so
	// min(sndWnd, cwnd) reads the same capped or not, and cwnd fits an int32.
	maxCwnd = 65535
)

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.SendBufSize == 0 {
		c.SendBufSize = 65535
	}
	if c.RecvBufSize == 0 {
		c.RecvBufSize = 65535
	}
	if c.DelayedAckTimeout == 0 {
		c.DelayedAckTimeout = 200 * time.Millisecond
	}
	if c.ISS == nil {
		c.ISS = func(rng *rand.Rand) Seq { return Seq(rng.Uint32()) }
	}
	// Conn stores sizes and windows as int32 (the MSS option is 16 bits).
	if c.MSS > 65535 || c.SendBufSize > 1<<30 || c.RecvBufSize > 1<<30 {
		panic(fmt.Sprintf("tcp: Config MSS %d, SendBufSize %d or RecvBufSize %d out of range (MSS <= 65535, buffers <= 1<<30)",
			c.MSS, c.SendBufSize, c.RecvBufSize))
	}
	return c
}

// Output transmits a marshaled TCP segment toward dst. The netstack
// installs this; on the replicated servers the bridge interposes here.
// Ownership of pkt transfers to the callee unconditionally — even on
// error — which must eventually Release it (or hand it on). The segment's
// checksum field is zero: whoever puts it on a wire seals it
// (SealChecksum).
type Output func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error

// Tuple identifies a connection by its four-tuple.
type Tuple struct {
	LocalAddr  ipv4.Addr
	LocalPort  uint16
	RemoteAddr ipv4.Addr
	RemotePort uint16
}

// String renders the tuple as "l:lp -> r:rp".
func (t Tuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d", t.LocalAddr, t.LocalPort, t.RemoteAddr, t.RemotePort)
}

// key packs the remote endpoint and local port into a uint64 map key. The
// packed key is what makes segment demultiplexing a single fast-path map
// probe at 10k connections: a 12-byte struct key forces the runtime through
// the generic hash/equal route, an 8-byte integer key takes the fast64 one.
// LocalAddr is deliberately left out — a stack nearly always owns one
// address, so conns that differ only there (possible around Rebind during
// IP takeover) share a key and are told apart by the collision chain.
func (t Tuple) key() uint64 {
	return uint64(t.RemoteAddr)<<32 | uint64(t.RemotePort)<<16 | uint64(t.LocalPort)
}

// SpanKey packs the tuple into the canonical span-recorder key: the
// client-side endpoint plus the service port. Evaluated on the client's
// tuple this is clientAddr<<32|clientPort<<16|servicePort — exactly what
// the secondary bridge computes from a diverted segment's addresses on its
// outbound path (core.MakeTupleKey(dst, dstPort, srcPort)), so both sides
// address the same span without any translation table.
func (t Tuple) SpanKey() uint64 {
	return uint64(t.LocalAddr)<<32 | uint64(t.LocalPort)<<16 | uint64(t.RemotePort)
}

// Stack is one host's TCP layer. It is event-driven: all methods must be
// called from the simulation loop.
type Stack struct {
	sched  *sim.Scheduler
	cfg    Config
	output Output
	rng    *rand.Rand

	// localAddr resolves the local address to use toward a destination;
	// provided by the netstack (consults the routing table).
	localAddr func(dst ipv4.Addr) (ipv4.Addr, bool)

	listeners map[uint16]*Listener
	// conns indexes connections by Tuple.key(), so a segment's lookup is one
	// table probe and then the Conn itself. Conns differing only in
	// LocalAddr share a key and chain through Conn.alias, newest first. The
	// Conn is the only per-connection heap object: applications hold *Conn
	// long-term, so it cannot live in an arena whose backing array moves.
	conns    flowtab.Map[*Conn]
	nextPort uint16

	// inSeg is the scratch segment Input parses into; handlers never retain
	// the pointer, so reusing it keeps segment receive allocation-free.
	inSeg Segment

	// m counts the stack's events, one series each; Stats is a view of it.
	m stackMetrics

	// spans, when non-nil, records per-connection lifecycle milestones
	// (SYN sent, established, payload progress, retransmits, zero-window
	// stalls) into the fleet span recorder. All SpanRecorder methods are
	// nil-receiver safe, so the hooks cost one predictable branch when
	// tracing is off.
	spans *obs.SpanRecorder
}

// Stats aggregates stack-wide counters. Each field is a view of the
// stack's metric series of the same meaning, read when Stats is called.
type Stats struct {
	Retransmissions int64
	FastRetransmits int64
}

// NewStack creates a TCP layer.
func NewStack(sched *sim.Scheduler, cfg Config, output Output,
	localAddr func(dst ipv4.Addr) (ipv4.Addr, bool)) *Stack {
	return &Stack{
		sched:     sched,
		cfg:       cfg.withDefaults(),
		output:    output,
		rng:       sched.Rand(),
		localAddr: localAddr,
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
		m:         newStackMetrics(nil, ""),
	}
}

// Config returns the stack configuration (after defaulting).
func (s *Stack) Config() Config { return s.cfg }

// Scheduler returns the event loop the stack runs on.
func (s *Stack) Scheduler() *sim.Scheduler { return s.sched }

// Stats returns a copy of the stack counters.
func (s *Stack) Stats() Stats {
	return Stats{
		Retransmissions: s.m.retransmissions.Value(),
		FastRetransmits: s.m.fastRetransmits.Value(),
	}
}

// Listener accepts incoming connections on a port.
type Listener struct {
	stack    *Stack
	port     uint16
	onAccept func(*Conn)
	closed   bool
}

// Listen starts accepting connections on port. The accept callback is
// invoked when a connection reaches ESTABLISHED.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) (*Listener, error) {
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{stack: s, port: port, onAccept: onAccept}
	s.listeners[port] = l
	return l, nil
}

// Close stops accepting new connections. Established connections survive.
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.stack.listeners, l.port)
	}
}

// Dial opens a connection to raddr:rport. The connection is returned
// immediately in SYN-SENT; OnEstablished / OnClose callbacks report the
// outcome.
func (s *Stack) Dial(raddr ipv4.Addr, rport uint16) (*Conn, error) {
	laddr, ok := s.localAddr(raddr)
	if !ok {
		return nil, fmt.Errorf("%w: dial %s", ErrNoRoute, raddr)
	}
	for range 65536 {
		t := Tuple{LocalAddr: laddr, LocalPort: s.allocPort(), RemoteAddr: raddr, RemotePort: rport}
		if s.findConn(t) == nil {
			return s.connect(t), nil
		}
	}
	// Every ephemeral port to this destination is taken. Failing loudly
	// beats the alternative — inserting a duplicate tuple whose segments
	// demultiplex to the older connection and wedge both handshakes.
	return nil, fmt.Errorf("%w: no free ephemeral port to %s:%d", ErrPortInUse, raddr, rport)
}

// DialFrom opens a connection with an explicit local port (used by
// applications like FTP that must originate from a well-known port).
func (s *Stack) DialFrom(lport uint16, raddr ipv4.Addr, rport uint16) (*Conn, error) {
	laddr, ok := s.localAddr(raddr)
	if !ok {
		return nil, fmt.Errorf("%w: dial %s", ErrNoRoute, raddr)
	}
	t := Tuple{LocalAddr: laddr, LocalPort: lport, RemoteAddr: raddr, RemotePort: rport}
	if s.findConn(t) != nil {
		return nil, fmt.Errorf("%w: %s", ErrPortInUse, t)
	}
	return s.connect(t), nil
}

// connect opens the connection of a tuple no other holds: registered in
// SYN-SENT, its SYN on the way.
func (s *Stack) connect(t Tuple) *Conn {
	c := s.newConn(t)
	c.state = StateSynSent
	s.insertConn(c)
	if s.spans != nil {
		s.spans.Mark(c.tuple.SpanKey(), obs.SpanSynSent, s.sched.Now())
	}
	c.sendSYN(false)
	return c
}

func (s *Stack) allocPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort < 49152 {
		s.nextPort = 49152
	}
	return p
}

// findConn returns the connection for a tuple, or nil. The alias chain is
// populated only by connections sharing a key, which requires two local
// addresses — in the steady state every probe resolves on the table hit.
func (s *Stack) findConn(t Tuple) *Conn {
	c, _ := s.conns.Get(t.key())
	for c != nil && c.tuple != t {
		c = c.alias
	}
	return c
}

// insertConn indexes c under its tuple's key, at the head of the chain.
func (s *Stack) insertConn(c *Conn) {
	k := c.tuple.key()
	c.alias, _ = s.conns.Get(k)
	s.conns.Put(k, c)
}

// removeConn unlinks c, by identity, from its key's chain.
func (s *Stack) removeConn(c *Conn) {
	k := c.tuple.key()
	head, _ := s.conns.Get(k)
	switch {
	case head != c:
		for p := head; p != nil; p = p.alias {
			if p.alias == c {
				p.alias = c.alias
				break
			}
		}
	case c.alias != nil:
		s.conns.Put(k, c.alias)
	default:
		s.conns.Delete(k)
	}
	c.alias = nil
}

// Crash fail-stops the stack: each connection stops its timers, returns its
// rings and leaves the tables with no callback run, and the listeners go.
func (s *Stack) Crash() {
	for _, c := range s.Conns() {
		c.onClose = nil
		c.destroy(closeAborted)
		c.rcvBuf.Release()
	}
	clear(s.listeners)
}

// Conns returns the current connections (copy), in no particular order.
func (s *Stack) Conns() []*Conn {
	var out []*Conn
	for _, k := range s.conns.AppendKeys(nil) {
		for c, _ := s.conns.Get(k); c != nil; c = c.alias {
			out = append(out, c)
		}
	}
	return out
}

// Lookup finds the connection for a tuple.
func (s *Stack) Lookup(t Tuple) (*Conn, bool) {
	c := s.findConn(t)
	return c, c != nil
}

// Rebind re-keys a connection to a new local address. The secondary bridge
// calls this during IP takeover, when the connections the secondary's TCP
// layer established under its own address must continue under the failed
// primary's address (paper section 5, step 5).
func (s *Stack) Rebind(t Tuple, newLocal ipv4.Addr) error {
	c := s.findConn(t)
	if c == nil {
		return fmt.Errorf("tcp: rebind: no connection %s", t)
	}
	nt := t
	nt.LocalAddr = newLocal
	if s.findConn(nt) != nil {
		return fmt.Errorf("%w: rebind target %s", ErrPortInUse, nt)
	}
	s.removeConn(c)
	c.tuple = nt
	s.insertConn(c)
	return nil
}

// Input delivers a marshaled segment that IP (or the bridge) addressed to
// this stack. src and dst are the datagram addresses used for checksum
// verification and demultiplexing.
func (s *Stack) Input(src, dst ipv4.Addr, b []byte) {
	s.m.segmentsIn.Inc()
	// Parse into the stack's scratch segment: input handlers read fields and
	// copy payload bytes but never retain the *Segment, so one struct serves
	// every arriving segment without allocating.
	seg := &s.inSeg
	if err := UnmarshalInto(src, dst, b, true, seg); err != nil {
		s.m.badChecksums.Inc()
		return
	}
	t := Tuple{LocalAddr: dst, LocalPort: seg.DstPort, RemoteAddr: src, RemotePort: seg.SrcPort}
	if c := s.findConn(t); c != nil {
		c.input(seg)
		return
	}
	if l, ok := s.listeners[seg.DstPort]; ok && !l.closed && seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		s.accept(l, t, seg)
		return
	}
	// No matching endpoint: RST unless the arriving segment is itself a RST.
	if !seg.Flags.Has(FlagRST) {
		s.sendRST(t, seg)
	}
}

func (s *Stack) accept(l *Listener, t Tuple, syn *Segment) {
	c := s.newConn(t)
	c.state = StateSynReceived
	c.listener = l
	s.insertConn(c)
	c.setRcvNxt(syn.Seq.Add(1))
	c.setSndWnd(syn.Window)
	if mss, ok := syn.MSS(); ok {
		c.mss = min(c.mss, int32(mss))
	}
	c.sendSYN(true)
}

// sendRST answers an unmatched segment per RFC 793.
func (s *Stack) sendRST(t Tuple, seg *Segment) {
	rst := &Segment{
		SrcPort: t.LocalPort,
		DstPort: t.RemotePort,
		Flags:   FlagRST,
	}
	if seg.Flags.Has(FlagACK) {
		rst.Seq = seg.Ack
	} else {
		rst.Flags |= FlagACK
		rst.Ack = seg.Seq.Add(seg.Len())
	}
	pkt := netbuf.Get()
	MarshalReserve(pkt, rst, 0)
	s.m.segmentsOut.Inc()
	_ = s.output(t.LocalAddr, t.RemoteAddr, pkt)
}
