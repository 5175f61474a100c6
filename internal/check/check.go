// Package check holds every scenario a test builds to the paper's promise
// while it runs (DESIGN.md section 8.2). tcpfailover.NewScenario and
// NewCells hand each build to OnBuild, which only test binaries set; the
// root tests also Drain and Quiesce each run. Every rule is judged as a
// segment crosses a tap, and no tap moves an event: the client and the
// router (which forwards, so drops nothing it overhears) carry packet taps,
// the members transmit taps.
//
//   - wire: a segment that reaches the client with a valid checksum comes
//     from the service address, acknowledges nothing the client has not
//     sent, and repeats the bytes earlier segments put at its sequence
//     numbers, as far as the client has not acknowledged them.
//   - window: its payload lies in [stream start, client's ack + 65 535].
//   - seal: every TCP datagram the client or a member transmits verifies.
//     The router is left out: it forwards frames a faulty link corrupted.
//   - min ack, window edge, release: a member whose matcher merges two
//     replicas (not Degraded) sends the client, from the service address,
//     no acknowledgment, right window edge or payload byte beyond the
//     highest that the backups diverting to it have put on the diverted
//     path, in the sequence space the client sees.
package check

import (
	"fmt"
	"slices"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/replica"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Testbed is what a scenario build hands OnBuild.
type Testbed struct {
	Seed           int64
	Sched          *sim.Scheduler
	Client, Router *netstack.Host
	Members        []*netstack.Host // primary first; the lone server when unreplicated
	Group          *replica.Group   // nil when unreplicated
	Service        ipv4.Addr
}

// OnBuild, when set, sees every testbed tcpfailover.NewScenario and
// NewCells build.
var OnBuild func(Testbed)

// Checker holds one testbed to the rules. Each violation goes to flag as
// "rule: what".
type Checker struct {
	tb              Testbed
	flag            func(string)
	conns           map[uint16]*wireConn // by the client's port
	unsealed        bool
	live, liveBytes int64 // netbuf's counters at the build, less settled
}

// wireConn is one connection the client dialed to the service address. A
// SYN with another ISS on the same port starts a new record.
type wireConn struct {
	iss    tcp.Seq  // the client's SYN
	sent   tcp.Seq  // one past the last sequence number the client has sent
	acked  tcp.Seq  // the highest acknowledgment the client has sent, from base on
	base   tcp.Seq  // the sequence number of the server's first byte
	synced bool     // the server's SYN has been seen and base set
	found  []string // the kinds of violation flagged, by format
	lo     int      // stream offset of data[0]; acknowledged bytes are let go
	data   []byte   // the server's bytes from lo on
	seen   []bool
	into   []path // by member position
}

// path is the highest acknowledgment, right window edge and payload end
// that the backups diverting to a member have put on the diverted path.
type path struct {
	ack, edge, end tcp.Seq
	fed            bool
}

// Watch taps tb and holds it to the rules, reporting each violation to
// flag.
func Watch(tb Testbed, flag func(string)) *Checker {
	c := &Checker{tb: tb, flag: flag, conns: map[uint16]*wireConn{},
		live: netbuf.Live() - settled.live, liveBytes: netbuf.LiveBytes() - settled.liveBytes}
	client := tb.Client.Iface(0).Addr()
	tb.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		switch {
		case hdr.Protocol != ipv4.ProtoTCP:
		case dir == "rx":
			c.toClient(hdr, seg)
		case c.sealed(tb.Client, hdr, seg) && hdr.Dst == tb.Service:
			c.fromClient(seg)
		}
	})
	tb.Router.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if dir == "rx" && hdr.Dst == client && hdr.Protocol == ipv4.ProtoTCP {
			c.toClient(hdr, seg)
		}
	})
	for i, h := range tb.Members {
		h.AddTxTap(func(_ string, hdr ipv4.Header, seg []byte) {
			if hdr.Protocol != ipv4.ProtoTCP || !c.sealed(h, hdr, seg) {
				return
			}
			if diverted, _ := tcp.HasOrigDstOption(seg); diverted {
				c.diverted(i, hdr, seg)
			} else if hdr.Src == tb.Service && hdr.Dst == client {
				c.fromHead(i, seg)
			}
		})
	}
	return c
}

// sealed is the seal rule, and reports whether seg is sane to read further.
func (c *Checker) sealed(h *netstack.Host, hdr ipv4.Header, seg []byte) bool {
	if tcp.ComputeChecksum(hdr.Src, hdr.Dst, seg) != 0 && !c.unsealed {
		c.unsealed = true
		c.flag(fmt.Sprintf("seal: %s sent %v a TCP datagram that fails its checksum", h.Name(), hdr.Dst))
	}
	return tcp.RawSane(seg)
}

// report flags the first violation of its kind (format) on w at port.
func (c *Checker) report(w *wireConn, port uint16, rule, format string, args ...any) {
	if !slices.Contains(w.found, format) {
		w.found = append(w.found, format)
		c.flag(fmt.Sprintf("%s: client port %d: %s", rule, port, fmt.Sprintf(format, args...)))
	}
}

// fromClient records what the client sends the service address.
func (c *Checker) fromClient(seg []byte) {
	port, seq, flags := tcp.RawSrcPort(seg), tcp.RawSeq(seg), tcp.RawFlags(seg)
	w := c.conns[port]
	if flags == tcp.FlagSYN && (w == nil || w.iss != seq) {
		w = &wireConn{iss: seq, sent: seq, into: make([]path, len(c.tb.Members))}
		c.conns[port] = w
	}
	if w == nil {
		return
	}
	if end := seq.Add(tcp.RawSegLen(seg)); end.Greater(w.sent) {
		w.sent = end
	}
	if ack := tcp.RawAck(seg); flags.Has(tcp.FlagACK) && w.synced && ack.Greater(w.acked) {
		w.acked = ack
	}
}

// toClient is the wire and window rules on a segment bound for the client.
func (c *Checker) toClient(hdr ipv4.Header, seg []byte) {
	if !tcp.RawSane(seg) {
		return
	}
	port := tcp.RawDstPort(seg)
	w := c.conns[port]
	if w == nil || tcp.ComputeChecksum(hdr.Src, hdr.Dst, seg) != 0 {
		return
	}
	if hdr.Src != c.tb.Service {
		c.report(w, port, "wire", "a segment from %v, not the service address", hdr.Src)
		return
	}
	seq, flags := tcp.RawSeq(seg), tcp.RawFlags(seg)
	if ack := tcp.RawAck(seg); flags.Has(tcp.FlagACK) && ack.Greater(w.sent) {
		c.report(w, port, "wire", "acknowledges %d, the client has sent up to %d", ack, w.sent)
	}
	if flags.Has(tcp.FlagSYN) {
		if !w.synced {
			w.synced, w.base, w.acked = true, seq+1, seq+1
		}
		seq++
	}
	p := tcp.RawPayload(seg)
	if !w.synced || len(p) == 0 {
		return
	}
	off, acked := seq.Diff(w.base), w.acked.Diff(w.base)
	if off < 0 || off+len(p) > acked+65535 { // no window scaling
		c.report(w, port, "window", "bytes [%d, %d) of the stream, the client has acknowledged %d", off, off+len(p), acked)
		return
	}
	if d := acked - w.lo; d >= len(w.data) {
		w.lo, w.data, w.seen = acked, w.data[:0], w.seen[:0]
	} else if d > 0 {
		w.lo, w.data, w.seen = acked, w.data[d:], w.seen[d:]
	}
	if n := off + len(p) - w.lo; n > len(w.data) {
		w.data = append(w.data, make([]byte, n-len(w.data))...)
		w.seen = append(w.seen, make([]bool, n-len(w.seen))...)
	}
	for i := max(w.lo-off, 0); i < len(p); i++ {
		if j := off + i - w.lo; !w.seen[j] {
			w.data[j], w.seen[j] = p[i], true
		} else if w.data[j] != p[i] {
			c.report(w, port, "wire", "byte %d of the stream is %#02x, earlier %#02x", off+i, p[i], w.data[j])
			return
		}
	}
}

// diverted records what the backup at position from put on the diverted
// path, into every other live member that owns the address it went to.
func (c *Checker) diverted(from int, hdr ipv4.Header, seg []byte) {
	w := c.conns[tcp.RawDstPort(seg)]
	if w == nil || !tcp.RawFlags(seg).Has(tcp.FlagACK) {
		return
	}
	ack := tcp.RawAck(seg)
	edge, end := ack.Add(int(tcp.RawWindow(seg))), tcp.RawSeq(seg).Add(len(tcp.RawPayload(seg)))
	for j, h := range c.tb.Members {
		if p := &w.into[j]; j != from && h.Alive() && h.Owns(hdr.Dst) {
			if !p.fed {
				*p = path{ack, edge, end, true}
			}
			p.ack, p.edge, p.end = tcp.MaxSeq(p.ack, ack), tcp.MaxSeq(p.edge, edge), tcp.MaxSeq(p.end, end)
		}
	}
}

// fromHead is the min ack, window edge and release rules on a segment the
// member at position i sends the client from the service address.
func (c *Checker) fromHead(i int, seg []byte) {
	port, flags := tcp.RawDstPort(seg), tcp.RawFlags(seg)
	w, h := c.conns[port], c.tb.Members[i]
	if w == nil || !w.into[i].fed || flags.Has(tcp.FlagRST) {
		return // not a failover connection, or nothing diverted to h yet
	}
	if m := c.tb.Group.Matcher(i); m == nil || m.Degraded() {
		return
	}
	in := w.into[i]
	if ack := tcp.RawAck(seg); flags.Has(tcp.FlagACK) {
		if ack.Greater(in.ack) {
			c.report(w, port, "min ack", "%s acknowledges %d, the diverted path up to %d", h.Name(), ack, in.ack)
		}
		if edge := ack.Add(int(tcp.RawWindow(seg))); edge.Greater(in.edge) {
			c.report(w, port, "window edge", "%s opens the window to %d, the diverted path to %d", h.Name(), edge, in.edge)
		}
	}
	if end := tcp.RawSeq(seg).Add(len(tcp.RawPayload(seg))); len(tcp.RawPayload(seg)) > 0 && end.Greater(in.end) {
		c.report(w, port, "release", "%s releases up to %d, the diverted path holds up to %d", h.Name(), end, in.end)
	}
}

// settled is what earlier quiescence checks left live, which a testbed
// built before them and checked after them must not count as its own.
var settled struct{ live, liveBytes int64 }

// Drain runs the testbed until done holds, stops the group and drains the
// event queue.
func (c *Checker) Drain(done func() bool) {
	s := c.tb.Sched
	if err := runUntil(s, done); err != nil {
		c.flag("quiescence: driven clients still open: " + err.Error())
	}
	if c.tb.Group != nil {
		c.tb.Group.Stop()
	}
	if err := runUntil(s, func() bool { return s.PendingEvents() == 0 }); err != nil {
		c.flag(fmt.Sprintf("quiescence: %d events still pending: %v", s.PendingEvents(), err))
	}
}

// runUntil steps s until cond holds, for at most an hour of virtual time.
func runUntil(s *sim.Scheduler, cond func() bool) error {
	deadline := s.Now() + time.Hour
	for !cond() {
		if s.Now() > deadline || !s.Step() && !cond() {
			return fmt.Errorf("not done at %v", s.Now())
		}
	}
	return nil
}

// Quiesce holds a drained testbed to quiescence: no packet buffer or ring
// storage is live, and no member's TCP layer or matcher, crashed or not,
// holds anything for a connection the client has closed. netbuf's counters
// are process-wide: only a binary running one testbed at a time may call it.
func (c *Checker) Quiesce() {
	tb := c.tb
	live, liveBytes := netbuf.Live()-settled.live-c.live, netbuf.LiveBytes()-settled.liveBytes-c.liveBytes
	settled.live, settled.liveBytes = settled.live+live, settled.liveBytes+liveBytes
	if live != 0 {
		c.flag(fmt.Sprintf("quiescence: netbuf.Live() = %d at quiescence", live))
	}
	if liveBytes != 0 {
		c.flag(fmt.Sprintf("quiescence: netbuf.LiveBytes() = %d at quiescence", liveBytes))
	}
	type ports struct{ client, server uint16 }
	open, toService := map[ports]bool{}, 0 // the client's connections
	for _, cc := range tb.Client.TCP().Conns() {
		tu := cc.Tuple()
		open[ports{tu.LocalPort, tu.RemotePort}] = true
		if tu.RemoteAddr == tb.Service {
			toService++
		}
	}
	for pos, h := range tb.Members {
		for _, mc := range h.TCP().Conns() {
			if tu := mc.Tuple(); tu.RemoteAddr == tb.Client.Iface(0).Addr() && !open[ports{tu.RemotePort, tu.LocalPort}] {
				c.flag(fmt.Sprintf("quiescence: %s holds %v in %v after the client closed it", h.Name(), tu, mc.State()))
			}
		}
		if tb.Group == nil {
			continue
		}
		if m := tb.Group.Matcher(pos); m != nil && m.Conns() > toService {
			c.flag(fmt.Sprintf("quiescence: %s's bridge holds %d records, the client %d connections", h.Name(), m.Conns(), toService))
		}
	}
}
