package tcpfailover_test

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/check"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// The root checker (DESIGN.md section 8.2): newScenario holds every root
// test's run to internal/check's online rules, the twin and quiescence, as
// "check: what" strings that TestCheckerReportsPlantedViolations reads;
// newCells holds every cell of a NewCells fleet to all but the twin.

// closeAllowance is how far a driven client's close may sit from its twin's,
// either way, with no per-test override. It covers a failover's detection,
// takeover and RTO backoff, and the loss a test injects or its Options put on
// a link, whose draws differ between the two runs. Across the suite (134
// clients, 77 within 0.5 s) the largest gap measured is 4.96 s with a member
// down at the end (TestPropertyRandomizedSweep case07, 1.2 % loss, the
// replicated run the earlier) and 4.63 s with every member up
// (TestCorruptedLinkStreamIntactUnderBatching, 5 % corruption); a client left
// stalled by a failed takeover backs off for minutes.
const closeAllowance = 10 * time.Second

// outcome is what a driven client saw of the service.
type outcome struct {
	received int64
	crc      uint32
	closed   bool
	closedAt time.Duration
	err      error
}

func (o *outcome) read(p []byte) {
	o.received += int64(len(p))
	o.crc = crc32.Update(o.crc, crc32.IEEETable, p)
}

func (o *outcome) close(sc *tcpfailover.Scenario, err error) {
	o.closed, o.closedAt, o.err = true, sc.Now(), err
}

func (o *outcome) result() *outcome { return o }

// drive is a client a test started through driven: when, what it saw, and
// how to start it again on the twin.
type drive struct {
	at     time.Duration
	got    *outcome
	replay func(*tcpfailover.Scenario) *outcome // nil when the dial fails
}

type checker struct {
	sc      *tcpfailover.Scenario
	opts    tcpfailover.Options
	install func(*netstack.Host) error
	drives  []*drive
	w       *check.Checker
	found   []string // violations, "check: what"
}

var (
	checkers  = map[*sim.Scheduler]*checker{} // by scheduler, from the build hook until claimed
	claiming  bool                            // build is building: the scenario is claimed
	unclaimed []string                        // call sites in tests that built a scenario directly
)

// watchBuild is the build hook TestMain installs: it watches every testbed,
// and records the call site (frame 2, the caller of NewScenario or NewCells)
// of a test's build without newScenario or newCells, which fails the run.
func watchBuild(tb check.Testbed) {
	if _, file, line, _ := runtime.Caller(2); !claiming && strings.HasSuffix(file, "_test.go") {
		unclaimed = append(unclaimed, fmt.Sprintf("%s:%d", filepath.Base(file), line))
	}
	c := &checker{}
	c.w = check.Watch(tb, func(v string) { c.found = append(c.found, v) })
	checkers[tb.Sched] = c
}

// newScenario builds a scenario, installs the service with install on every
// member (or on the lone server; nil installs nothing), starts it, and holds
// the run to the checks when the test ends.
func newScenario(t *testing.T, opts tcpfailover.Options, install func(*netstack.Host) error) *tcpfailover.Scenario {
	t.Helper()
	c, err := build(opts, install)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	t.Cleanup(func() { report(t, "", c.violations()) })
	return c.sc
}

// newCells is newScenario for a NewCells fleet, less the twin check (cells
// take no driven clients). Every cell drains before any is checked: netbuf's
// counters are process-wide, so a cell checked beside an undrained sibling
// would be blamed for its rings; what the fleet leaves shows in cell 0's.
func newCells(t *testing.T, n int, opts tcpfailover.Options, install func(*netstack.Host) error) []*tcpfailover.Scenario {
	t.Helper()
	claiming = true
	cells, err := tcpfailover.NewCells(n, opts)
	claiming = false
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	cs := make([]*checker, len(cells))
	for i, sc := range cells {
		cs[i] = checkers[sc.Sched]
		delete(checkers, sc.Sched)
		if err := setUp(sc, install); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range cs {
			c.w.Drain(func() bool { return true })
		}
		for i, c := range cs {
			c.w.Quiesce()
			report(t, fmt.Sprintf("cell %d: ", i), c.found)
		}
	})
	return cells
}

// report fails t with each violation.
func report(t *testing.T, where string, vs []string) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("checker: %s%s", where, v)
	}
}

// build assembles, installs and starts a scenario, and returns the checker
// the build hook attached to it.
func build(opts tcpfailover.Options, install func(*netstack.Host) error) (*checker, error) {
	claiming = true
	sc, err := tcpfailover.NewScenario(opts)
	claiming = false
	if err != nil {
		return nil, err
	}
	c := checkers[sc.Sched]
	c.sc, c.opts, c.install = sc, opts, install
	return c, setUp(sc, install)
}

// setUp installs the service with install on every member, or on the lone
// server, and starts sc.
func setUp(sc *tcpfailover.Scenario, install func(*netstack.Host) error) error {
	var err error
	if install != nil && sc.Group != nil {
		err = sc.Group.OnEach(install)
	} else if install != nil {
		err = install(sc.Primary)
	}
	if err == nil {
		sc.Start()
	}
	return err
}

// driven starts a client with dial on sc now, and registers it to be started
// again at the same instant on the twin.
func driven[C interface{ result() *outcome }](t *testing.T, sc *tcpfailover.Scenario, dial func(*tcpfailover.Scenario) (C, error)) C {
	t.Helper()
	c := checkers[sc.Sched]
	if c == nil || c.sc != sc {
		t.Fatal("a driven client needs a scenario built by newScenario")
	}
	cl, err := dial(sc)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.drives = append(c.drives, &drive{sc.Now(), cl.result(), func(twin *tcpfailover.Scenario) *outcome {
		if cl, err := dial(twin); err == nil {
			return cl.result()
		}
		return nil
	}})
	return cl
}

// runUntil steps sc until cond holds and fails the test at the deadline;
// the checker then reports what each client saw.
func runUntil(t *testing.T, sc *tcpfailover.Scenario, cond func() bool, deadline time.Duration) {
	t.Helper()
	if err := sc.RunUntil(cond, deadline); err != nil {
		t.Fatalf("run until: %v", err)
	}
}

func (c *checker) flag(check, format string, args ...any) {
	c.found = append(c.found, check+": "+fmt.Sprintf(format, args...))
}

// violations runs the scenario to quiescence and returns what the three
// checks found.
func (c *checker) violations() []string {
	delete(checkers, c.sc.Sched)
	var got []*outcome
	for _, d := range c.drives {
		got = append(got, d.got)
	}
	c.drain(got)
	c.w.Quiesce()
	c.twin()
	return c.found
}

// drain runs until every client in outs has closed, and if there is one
// closeAllowance more for "members end", then stops and drains the scenario.
func (c *checker) drain(outs []*outcome) {
	armed, judged := len(outs) == 0, len(outs) == 0
	c.w.Drain(func() bool {
		if !armed && allClosed(outs) {
			armed = true
			c.sc.Sched.After(closeAllowance, "checker.members-end", func() { c.membersEnd(); judged = true })
		}
		return judged
	})
}

// membersEnd: every live member (or the lone server) has let go of each
// connection whose client port is no longer open, but in TIME-WAIT. A
// client connection in TIME-WAIT has ended: its application is gone.
func (c *checker) membersEnd() {
	open := map[uint16]bool{}
	for _, cc := range c.sc.Client.TCP().Conns() {
		open[cc.Tuple().LocalPort] = cc.State() != tcp.StateTimeWait
	}
	for _, h := range []*netstack.Host{c.sc.Primary, c.sc.Secondary, c.sc.Tertiary} {
		if h == nil || !h.Alive() {
			continue
		}
		for _, mc := range h.TCP().Conns() {
			if tu := mc.Tuple(); tu.RemoteAddr == c.sc.Client.Iface(0).Addr() && !open[tu.RemotePort] && mc.State() != tcp.StateTimeWait {
				c.flag("members end", "%s holds %v in %v %v after the last client closed", h.Name(), tu, mc.State(), closeAllowance)
			}
		}
	}
}

func allClosed(outs []*outcome) bool {
	for _, o := range outs {
		if o == nil || !o.closed {
			return false
		}
	}
	return true
}

// twin starts every driven client again, at the instant it started, on a twin
// built from the same Options with Unreplicated set and no Faults — so the
// test's own crashes and impairments are never replayed — and compares: the
// byte count, the bytes' CRC and the ending must match, and the close time
// must fall within closeAllowance.
func (c *checker) twin() {
	if len(c.drives) == 0 {
		return
	}
	opts := c.opts
	opts.Unreplicated, opts.Faults = true, nil
	tc, err := build(opts, c.install)
	if err != nil {
		c.flag("twin", "build: %v", err)
		return
	}
	tw := tc.sc
	delete(checkers, tw.Sched)
	defer func() {
		for _, v := range tc.found {
			rule, what, _ := strings.Cut(v, ": ")
			c.flag(rule, "the twin's run: %s", what)
		}
	}()
	outs := make([]*outcome, len(c.drives))
	for i, d := range c.drives {
		tw.Sched.At(d.at, "checker.replay", func() { outs[i] = d.replay(tw) })
	}
	tc.drain(outs) // leaves netbuf's counters as it found them
	for i, d := range c.drives {
		got, want := d.got, outs[i]
		if want == nil {
			c.flag("twin", "client %d: the twin could not dial", i)
			continue
		}
		var diff []string
		if got.received != want.received || got.crc != want.crc {
			diff = append(diff, fmt.Sprintf("%d bytes (crc %08x), twin %d (%08x)", got.received, got.crc, want.received, want.crc))
		}
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			diff = append(diff, fmt.Sprintf("ended with %v, twin with %v", got.err, want.err))
		}
		if gap := got.closedAt - want.closedAt; !got.closed || !want.closed || gap > closeAllowance || gap < -closeAllowance {
			diff = append(diff, fmt.Sprintf("closed %v at %v, twin %v at %v", got.closed, got.closedAt, want.closed, want.closedAt))
		}
		if len(diff) > 0 {
			c.flag("twin", "client %d started at %v: %s", i, d.at, strings.Join(diff, "; "))
		}
	}
}

// wireView is the client's last connection as its packet tap shows it.
type wireView struct {
	port      uint16
	sent      tcp.Seq // one past what the client has sent
	next, ack tcp.Seq // one past the server's last sequence number, and its last ack
	win       uint16
	data      bool // the client has sent a payload byte
}

func watchClient(sc *tcpfailover.Scenario) *wireView {
	v := &wireView{}
	sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if hdr.Protocol != ipv4.ProtoTCP || !tcp.RawSane(seg) {
			return
		}
		syn, end := tcp.RawFlags(seg).Has(tcp.FlagSYN), tcp.RawSeq(seg).Add(tcp.RawSegLen(seg))
		switch {
		case dir == "tx":
			if syn {
				v.port, v.sent = tcp.RawSrcPort(seg), end
			}
			v.sent, v.data = tcp.MaxSeq(v.sent, end), v.data || len(tcp.RawPayload(seg)) > 0
		case hdr.Src == sc.ServiceAddr():
			if syn {
				v.next = end
			}
			v.next, v.ack, v.win = tcp.MaxSeq(v.next, end), tcp.RawAck(seg), tcp.RawWindow(seg)
		}
	})
	return v
}

// TestCheckerReportsPlantedViolations holds the checker to its checks: each
// row plants one defect in an echo through the pair, and the checker must
// report exactly the one violation that defect is.
func TestCheckerReportsPlantedViolations(t *testing.T) {
	type run struct {
		t  *testing.T
		sc *tcpfailover.Scenario
		ec *echoClient
		v  *wireView
	}
	echoed := func(r run) { runUntil(r.t, r.sc, func() bool { return r.ec.received > 0 }, time.Minute) }
	// send has h send seg to the client's port from src; bad breaks its sum.
	send := func(r run, h *netstack.Host, src ipv4.Addr, seg tcp.Segment, bad bool) error {
		seg.SrcPort, seg.DstPort = 80, r.v.port
		b := tcp.Marshal(src, tcpfailover.ClientAddr, &seg)
		if bad {
			b[16] ^= 0xff
		}
		return h.SendIP(src, tcpfailover.ClientAddr, ipv4.ProtoTCP, b)
	}
	svc, secondary := tcpfailover.PrimaryAddr, tcpfailover.SecondaryAddr
	for _, tc := range []struct {
		name, check, says string
		install           func(*netstack.Host) error
		plant             func(r run) error
	}{
		{"secondary diverges", "twin", "ended with " + tcp.ErrConnReset.Error() + ", twin with <nil>", flipEcho("secondary", 3000),
			func(r run) error { echoed(r); return nil }},
		{"unreleased buffer", "quiescence", "netbuf.Live() = 1 ", echoServer,
			func(r run) error { echoed(r); netbuf.Get(); return nil }},
		{"segment from the secondary", "wire", "a segment from 10.0.1.2,", echoServer, func(r run) error {
			echoed(r)
			return send(r, r.sc.Secondary, secondary, tcp.Segment{Flags: tcp.FlagRST | tcp.FlagACK}, false)
		}},
		{"a byte past the client's window", "window", "bytes [", echoServer, func(r run) error {
			echoed(r)
			return send(r, r.sc.Router, svc, tcp.Segment{Seq: r.v.next.Add(1 << 20), Ack: r.v.ack, Flags: tcp.FlagACK, Window: r.v.win, Payload: []byte{1}}, false)
		}},
		{"an unsealed datagram", "seal", "secondary sent 10.0.2.1 ", echoServer, func(r run) error {
			echoed(r)
			return send(r, r.sc.Secondary, secondary, tcp.Segment{Seq: r.v.next, Ack: r.v.ack, Flags: tcp.FlagACK}, true)
		}},
		{"the primary acknowledges alone", "min ack", "primary acknowledges", echoServer, func(r run) error {
			// Right after the client sends data, only the client holds it.
			runUntil(r.t, r.sc, func() bool { return r.v.data }, time.Minute)
			return send(r, r.sc.Primary, svc, tcp.Segment{Seq: r.v.next, Ack: r.v.sent, Flags: tcp.FlagACK, Window: 4096}, false)
		}},
		{"the primary opens its own window", "window edge", "primary opens the window", echoServer, func(r run) error {
			echoed(r) // the backups' windows close to 16 KiB
			return send(r, r.sc.Primary, svc, tcp.Segment{Seq: r.v.next, Ack: r.v.ack, Flags: tcp.FlagACK, Window: 65535}, false)
		}},
		{"the primary releases its own byte", "release", "primary releases", echoServer, func(r run) error {
			echoed(r)
			return send(r, r.sc.Primary, svc, tcp.Segment{Seq: r.v.next.Add(16384), Ack: r.v.ack, Flags: tcp.FlagACK, Window: r.v.win, Payload: []byte{1}}, false)
		}},
		{"a member left in LAST-ACK", "members end", "secondary holds", echoServer, func(r run) error {
			// The secondary hears nothing more once it has sent its FIN, so
			// it retransmits it to a client that has closed.
			lastAck := func(c *tcp.Conn) bool { return c.State() == tcp.StateLastAck }
			return r.sc.Faults.Impair(fault.Impairment{Link: fault.LinkServerLAN, To: fault.RoleSecondary,
				Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
					return isTCP(p) && slices.ContainsFunc(r.sc.Secondary.TCP().Conns(), lastAck)
				}, 0)}})
		}},
		{"an ack past a reused port's stream", "wire", "acknowledges", echoServer, func(r run) error {
			// A second connection from the first one's port, after TIME-WAIT,
			// starts a record of its own, not judged by the first's stream.
			runUntil(r.t, r.sc, func() bool { return r.ec.closed && len(r.sc.Client.TCP().Conns()) == 0 }, 5*time.Minute)
			conn, err := r.sc.Client.TCP().DialFrom(r.v.port, svc, 80)
			if err != nil {
				return err
			}
			runUntil(r.t, r.sc, func() bool { return conn.State() == tcp.StateEstablished }, r.sc.Now()+time.Minute)
			defer conn.Close()
			return send(r, r.sc.Router, svc, tcp.Segment{Seq: r.v.next, Ack: r.v.sent.Add(1000), Flags: tcp.FlagACK, Window: r.v.win}, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			opts.TCP.RecvBufSize = 16 << 10
			c, err := build(opts, tc.install)
			if err != nil {
				t.Fatal(err)
			}
			v := watchClient(c.sc)
			if err := tc.plant(run{t, c.sc, startEchoClient(t, c.sc, 8192), v}); err != nil {
				t.Fatal(err)
			}
			if vs := c.violations(); len(vs) != 1 || !strings.HasPrefix(vs[0], tc.check+": ") || !strings.Contains(vs[0], tc.says) {
				t.Errorf("violations %q, want one %s violation saying %q", vs, tc.check, tc.says)
			}
		})
	}
}
