package tcpfailover_test

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// The root checker (DESIGN.md section 4.2): newScenario holds every
// root test's run to three checks — wire (toClient), twin and quiescence
// (quiesce) — which report "check: what" strings rather than fail the test,
// so TestCheckerReportsPlantedViolations can hold the checker to them.

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

// expectedFail maps "TestName check" to why that test is known to fail that
// check; each entry is carried on ROADMAP item 1. None is: all three pass.
var expectedFail = map[string]string{}

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

// wireConn is a connection the client dialed to the service address, as the
// segments on the wire show it.
type wireConn struct {
	sent   tcp.Seq // one past the last sequence number the client has sent
	synced bool    // the server's SYN has been seen and base set
	base   tcp.Seq // the sequence number of the server's first byte
	data   []byte  // the server's bytes by offset from base, up to 64 MiB
	seen   []bool
}

type checker struct {
	sc      *tcpfailover.Scenario
	opts    tcpfailover.Options
	install func(*netstack.Host) error
	drives  []*drive
	conns   map[uint16]*wireConn // by the client's port
	found   []string             // violations, "check: what"
	seen    map[string]bool      // wire violations already found, by port and kind

	live, liveBytes int64 // netbuf's counters, less settled, before the build
}

var (
	checkers  = map[*tcpfailover.Scenario]*checker{}
	claiming  bool     // build is building: the scenario is claimed
	unclaimed []string // call sites in tests that built a scenario directly

	// settled is what earlier quiescence checks left live: their scenarios'
	// residue, which a scenario built before them and checked after them
	// (cleanups run last in, first out) must not count as its own.
	settled struct{ live, liveBytes int64 }
)

// policeBuild is the build hook TestMain installs: a scenario a test file
// builds without newScenario is recorded by its call site (frame 2, the
// caller of NewScenario), and TestMain fails the run.
func policeBuild(*tcpfailover.Scenario) {
	if _, file, line, _ := runtime.Caller(2); !claiming && strings.HasSuffix(file, "_test.go") {
		unclaimed = append(unclaimed, fmt.Sprintf("%s:%d", filepath.Base(file), line))
	}
}

// newScenario builds a scenario, installs the service with install on every
// member (or on the lone server; nil installs nothing), starts it, and holds
// the run to the three checks when the test ends.
func newScenario(t *testing.T, opts tcpfailover.Options, install func(*netstack.Host) error) *tcpfailover.Scenario {
	t.Helper()
	c, err := newChecker(opts, install)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	t.Cleanup(func() {
		for _, v := range c.violations() {
			check, _, _ := strings.Cut(v, ":")
			if why, ok := expectedFail[t.Name()+" "+check]; ok {
				t.Logf("checker, expected to fail (%s): %s", why, v)
			} else {
				t.Errorf("checker: %s", v)
			}
		}
	})
	return c.sc
}

func newChecker(opts tcpfailover.Options, install func(*netstack.Host) error) (*checker, error) {
	c := &checker{opts: opts, install: install, conns: map[uint16]*wireConn{}, seen: map[string]bool{},
		live: netbuf.Live() - settled.live, liveBytes: netbuf.LiveBytes() - settled.liveBytes}
	sc, err := build(opts, install)
	if err != nil {
		return nil, err
	}
	c.sc, checkers[sc] = sc, c
	client := sc.Client.Iface(0).Addr()
	sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if hdr.Protocol != ipv4.ProtoTCP || !tcp.RawSane(seg) {
			return
		}
		if dir == "rx" {
			c.toClient(hdr, seg)
			return
		}
		port, end := tcp.RawSrcPort(seg), tcp.RawSeq(seg).Add(tcp.RawSegLen(seg))
		if c.conns[port] == nil && hdr.Dst == sc.ServiceAddr() && tcp.RawFlags(seg) == tcp.FlagSYN {
			c.conns[port] = &wireConn{sent: end}
		}
		if w := c.conns[port]; w != nil && end.Greater(w.sent) {
			w.sent = end
		}
	})
	sc.Router.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if dir == "rx" && hdr.Dst == client && hdr.Protocol == ipv4.ProtoTCP && tcp.RawSane(seg) {
			c.toClient(hdr, seg)
		}
	})
	return c, nil
}

// build assembles, installs and starts a scenario the checker owns.
func build(opts tcpfailover.Options, install func(*netstack.Host) error) (*tcpfailover.Scenario, error) {
	claiming = true
	sc, err := tcpfailover.NewScenario(opts)
	claiming = false
	if err == nil && install != nil && sc.Group != nil {
		err = sc.Group.OnEach(install)
	} else if err == nil && install != nil {
		err = install(sc.Primary)
	}
	if err == nil {
		sc.Start()
	}
	return sc, err
}

// driven starts a client with dial on sc now, and registers it to be started
// again at the same instant on the twin.
func driven[C interface{ result() *outcome }](t *testing.T, sc *tcpfailover.Scenario, dial func(*tcpfailover.Scenario) (C, error)) C {
	t.Helper()
	c := checkers[sc]
	if c == nil {
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

// toClient is the wire check (DESIGN.md section 4.2) on a segment bound for
// the client; it keeps the first violation of each kind per connection.
func (c *checker) toClient(hdr ipv4.Header, seg []byte) {
	port := tcp.RawDstPort(seg)
	w := c.conns[port]
	if w == nil || tcp.ComputeChecksum(hdr.Src, hdr.Dst, seg) != 0 {
		return
	}
	flag := func(kind, format string, args ...any) {
		if key := fmt.Sprint(port, kind); !c.seen[key] {
			c.seen[key] = true
			c.flag("wire", "client port %d: %s", port, fmt.Sprintf(format, args...))
		}
	}
	if hdr.Src != c.sc.ServiceAddr() {
		flag("source", "a segment from %v, not the service address", hdr.Src)
		return
	}
	seq, flags := tcp.RawSeq(seg), tcp.RawFlags(seg)
	if ack := tcp.RawAck(seg); flags.Has(tcp.FlagACK) && ack.Greater(w.sent) {
		flag("ack", "acknowledges %d, the client has sent up to %d", ack, w.sent)
	}
	if flags.Has(tcp.FlagSYN) {
		if !w.synced {
			w.synced, w.base = true, seq+1
		}
		seq++
	}
	p, off := tcp.RawPayload(seg), seq.Diff(w.base)
	if !w.synced || off < 0 || off+len(p) > 64<<20 {
		return
	}
	if n := off + len(p); n > len(w.data) {
		w.data = append(w.data, make([]byte, n-len(w.data))...)
		w.seen = append(w.seen, make([]bool, n-len(w.seen))...)
	}
	for i, b := range p {
		if j := off + i; !w.seen[j] {
			w.data[j], w.seen[j] = b, true
		} else if w.data[j] != b {
			flag("bytes", "byte %d of the stream is %#02x, earlier %#02x", j, b, w.data[j])
			return
		}
	}
}

// violations runs the scenario to quiescence and returns what the three
// checks found.
func (c *checker) violations() []string {
	delete(checkers, c.sc)
	c.quiesce()
	c.twin()
	return c.found
}

func allClosed(outs []*outcome) bool {
	for _, o := range outs {
		if o == nil || !o.closed {
			return false
		}
	}
	return true
}

// quiesce runs the scenario until every driven client has closed, stops the
// group and drains the event queue. Then no packet buffer or ring storage is
// live, and no member's TCP layer or matcher, crashed or not, holds anything
// for a connection the client has closed.
func (c *checker) quiesce() {
	sc := c.sc
	var got []*outcome
	for _, d := range c.drives {
		got = append(got, d.got)
	}
	if err := sc.RunUntil(func() bool { return allClosed(got) }, sc.Now()+time.Hour); err != nil {
		c.flag("quiescence", "driven clients still open: %v", err)
	}
	if sc.Group != nil {
		sc.Group.Stop()
	}
	if err := sc.RunUntil(func() bool { return sc.Sched.PendingEvents() == 0 }, sc.Now()+time.Hour); err != nil {
		c.flag("quiescence", "%d events still pending: %v", sc.Sched.PendingEvents(), err)
	}
	live, liveBytes := netbuf.Live()-settled.live-c.live, netbuf.LiveBytes()-settled.liveBytes-c.liveBytes
	settled.live, settled.liveBytes = settled.live+live, settled.liveBytes+liveBytes
	if live != 0 {
		c.flag("quiescence", "netbuf.Live() = %d at quiescence", live)
	}
	if liveBytes != 0 {
		c.flag("quiescence", "netbuf.LiveBytes() = %d at quiescence", liveBytes)
	}
	type ports struct{ client, server uint16 }
	open, toService := map[ports]bool{}, 0 // the client's connections
	for _, cc := range sc.Client.TCP().Conns() {
		tu := cc.Tuple()
		open[ports{tu.LocalPort, tu.RemotePort}] = true
		if tu.RemoteAddr == sc.ServiceAddr() {
			toService++
		}
	}
	for pos, h := range []*netstack.Host{sc.Primary, sc.Secondary, sc.Tertiary} {
		if h == nil {
			continue
		}
		for _, mc := range h.TCP().Conns() {
			if tu := mc.Tuple(); tu.RemoteAddr == sc.Client.Iface(0).Addr() && !open[ports{tu.RemotePort, tu.LocalPort}] {
				c.flag("quiescence", "%s holds %v in %v after the client closed it", h.Name(), tu, mc.State())
			}
		}
		if sc.Group == nil {
			continue
		}
		m := sc.Group.PrimaryBridge() // the member's matcher; the last member has none
		if pos > 0 {
			m = sc.Group.Backup(pos).Matcher()
		}
		if m != nil && m.Conns() > toService {
			c.flag("quiescence", "%s's bridge holds %d records, the client %d connections", h.Name(), m.Conns(), toService)
		}
	}
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
	tw, err := build(opts, c.install)
	if err != nil {
		c.flag("twin", "build: %v", err)
		return
	}
	outs := make([]*outcome, len(c.drives))
	for i, d := range c.drives {
		tw.Sched.At(d.at, "checker.replay", func() { outs[i] = d.replay(tw) })
	}
	_ = tw.RunUntil(func() bool { return allClosed(outs) }, tw.Now()+2*time.Hour)
	// Drained, the twin leaves netbuf's counters as it found them.
	_ = tw.RunUntil(func() bool { return tw.Sched.PendingEvents() == 0 }, tw.Now()+time.Hour)
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

// TestCheckerReportsPlantedViolations holds the checker to its three checks:
// each row plants one defect, and the checker must report exactly the one
// violation that defect is.
func TestCheckerReportsPlantedViolations(t *testing.T) {
	const total = 8192
	for _, tc := range []struct {
		name, check, says string
		install           func(*netstack.Host) error
		plant             func(sc *tcpfailover.Scenario) error
	}{
		{"secondary diverges", "twin", "ended with " + tcp.ErrConnReset.Error() + ", twin with <nil>", flipEcho("secondary", 3000),
			func(*tcpfailover.Scenario) error { return nil }},
		{"unreleased buffer", "quiescence", "netbuf.Live() = 1 ", echoServer,
			func(*tcpfailover.Scenario) error { netbuf.Get(); return nil }},
		{"segment from the secondary", "wire", "a segment from 10.0.1.2,", echoServer, func(sc *tcpfailover.Scenario) error {
			seg := tcp.Marshal(tcpfailover.SecondaryAddr, tcpfailover.ClientAddr,
				&tcp.Segment{SrcPort: 80, DstPort: 49152, Flags: tcp.FlagRST | tcp.FlagACK})
			return sc.Secondary.SendIP(tcpfailover.SecondaryAddr, tcpfailover.ClientAddr, ipv4.ProtoTCP, seg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := newChecker(tcpfailover.LANOptions(), tc.install)
			if err != nil {
				t.Fatal(err)
			}
			ec := startEchoClient(t, c.sc, total)
			runUntil(t, c.sc, func() bool { return ec.received > 0 }, time.Minute)
			if err := tc.plant(c.sc); err != nil {
				t.Fatal(err)
			}
			if vs := c.violations(); len(vs) != 1 || !strings.HasPrefix(vs[0], tc.check+": ") || !strings.Contains(vs[0], tc.says) {
				t.Errorf("violations %q, want one %s violation saying %q", vs, tc.check, tc.says)
			}
		})
	}
}
