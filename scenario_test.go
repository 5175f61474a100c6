package tcpfailover_test

import (
	"io"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/core"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// newEchoScenario builds a replicated (or standard) echo service on port 80.
func newEchoScenario(t *testing.T, opts tcpfailover.Options) *tcpfailover.Scenario {
	t.Helper()
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	install := func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 80)
		return err
	}
	if sc.Group != nil {
		if err := sc.Group.OnEach(install); err != nil {
			t.Fatalf("install echo: %v", err)
		}
	} else {
		if err := install(sc.Primary); err != nil {
			t.Fatalf("install echo: %v", err)
		}
	}
	sc.Start()
	return sc
}

// echoClient drives a client connection that sends total bytes and expects
// them echoed back.
type echoClient struct {
	conn     *tcp.Conn
	total    int64
	sent     int64
	received int64
	badAt    int64
	eof      bool
	closed   bool
	closedAt time.Duration
	err      error
}

func startEchoClient(t *testing.T, sc *tcpfailover.Scenario, total int64) *echoClient {
	t.Helper()
	return startEchoClientPort(t, sc, total, 80)
}

func startEchoClientPort(t *testing.T, sc *tcpfailover.Scenario, total int64, port uint16) *echoClient {
	t.Helper()
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ec := &echoClient{conn: conn, total: total, badAt: -1}
	chunk := make([]byte, 16*1024)
	pump := func() {
		for ec.sent < ec.total {
			n := int64(len(chunk))
			if ec.total-ec.sent < n {
				n = ec.total - ec.sent
			}
			apps.Pattern(chunk[:n], ec.sent)
			m, werr := conn.Write(chunk[:n])
			if werr != nil {
				return
			}
			if m == 0 {
				return
			}
			ec.sent += int64(m)
		}
		conn.Close()
	}
	rbuf := make([]byte, 16*1024)
	conn.OnEstablished(pump)
	conn.OnWritable(pump)
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(rbuf)
			if n > 0 {
				if ec.badAt < 0 {
					if i := apps.VerifyPattern(rbuf[:n], ec.received); i >= 0 {
						ec.badAt = ec.received + int64(i)
					}
				}
				ec.received += int64(n)
				continue
			}
			if rerr == io.EOF {
				ec.eof = true
			}
			return
		}
	})
	conn.OnClose(func(err error) {
		ec.closed = true
		ec.closedAt = sc.Sched.Now()
		ec.err = err
	})
	return ec
}

// tapSeals taps every host of sc and returns a check that every TCP
// datagram a host transmitted carried a checksum that verifies. A segment is
// sealed by whoever puts it on a wire — the stack's output, the secondary's
// divert, the primary bridge's releases, drain and pass-through — so a send
// path that forgets to fails here rather than as a stall.
func tapSeals(sc *tcpfailover.Scenario) func(t *testing.T) {
	var sent, unsealed int
	for _, h := range []*netstack.Host{sc.Client, sc.Router, sc.Primary, sc.Secondary, sc.Tertiary} {
		if h == nil {
			continue
		}
		h.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
			if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP {
				sent++
				if tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) != 0 {
					unsealed++
				}
			}
		})
	}
	return func(t *testing.T) {
		t.Helper()
		if sent == 0 || unsealed > 0 {
			t.Errorf("%d of %d transmitted TCP datagrams fail their checksum", unsealed, sent)
		}
	}
}

func (ec *echoClient) check(t *testing.T) {
	t.Helper()
	if ec.sent != ec.total {
		t.Errorf("client sent %d of %d bytes", ec.sent, ec.total)
	}
	if ec.received != ec.total {
		t.Errorf("client received %d of %d echoed bytes", ec.received, ec.total)
	}
	if ec.badAt >= 0 {
		t.Errorf("echoed stream corrupted at offset %d", ec.badAt)
	}
	if !ec.closed {
		t.Error("connection did not close")
	}
	if ec.err != nil {
		t.Errorf("connection closed with error: %v", ec.err)
	}
}

func TestReplicatedEchoFaultFree(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	ec := startEchoClient(t, sc, 200*1024)
	if err := sc.RunUntil(func() bool { return ec.closed }, 5*time.Minute); err != nil {
		t.Fatalf("run: %v (sent=%d received=%d)", err, ec.sent, ec.received)
	}
	ec.check(t)

	pstats := sc.Group.PrimaryBridge().Stats()
	if pstats.BytesMatched < 200*1024 {
		t.Errorf("primary bridge matched %d bytes, want >= %d", pstats.BytesMatched, 200*1024)
	}
	sstats := sc.Group.SecondaryBridge().Stats()
	if sstats.SnoopedIn == 0 || sstats.DivertedOut == 0 {
		t.Errorf("secondary bridge inactive: %+v", sstats)
	}
}

func TestStandardEchoBaseline(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Unreplicated = true
	sc := newEchoScenario(t, opts)
	ec := startEchoClient(t, sc, 200*1024)
	if err := sc.RunUntil(func() bool { return ec.closed }, 5*time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	ec.check(t)
}

func TestFailoverPrimaryMidStream(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	checkSeals := tapSeals(sc)
	ec := startEchoClient(t, sc, 512*1024)

	// Let the transfer get going, then kill the primary.
	if err := sc.RunUntil(func() bool { return ec.received > 64*1024 }, 60*time.Second); err != nil {
		t.Fatalf("warm-up: %v (received=%d)", err, ec.received)
	}
	sc.Group.CrashPrimary()

	if err := sc.RunUntil(func() bool { return ec.closed }, 10*time.Minute); err != nil {
		t.Fatalf("post-failover run: %v (sent=%d received=%d eof=%v)",
			err, ec.sent, ec.received, ec.eof)
	}
	ec.check(t)
	checkSeals(t)
	if got := sc.Group.SecondaryBridge().Stats().TakenOver; got == 0 {
		t.Error("secondary bridge reports no connections taken over")
	}
}

// TestOverheardFramesSkipMatchesTappedRun: the secondary's promiscuous NIC
// overhears every frame the primary sends toward the router, and frameIn
// drops those on arrival instead of running them through the inbound hook
// and IP input. A packet tap turns the drop off, so the same seeded failover
// stream with a no-op tap on the secondary takes the old path. The primary
// crashes mid-stream, so the takeover's Snoop(0) is crossed. Everything
// observable must match, and the untapped run executes exactly one event
// fewer per overheard frame.
func TestOverheardFramesSkipMatchesTappedRun(t *testing.T) {
	type outcome struct {
		received, badAt int64
		err             error
		closedAt        time.Duration
		lan, client     ethernet.Stats
		primary         core.PrimaryStats
		secondary       core.SecondaryStats
		executed        int
		overheard       int
	}
	run := func(tap bool) outcome {
		sc := newEchoScenario(t, tcpfailover.LANOptions())
		var o outcome
		if tap {
			s := sc.Secondary
			s.AddPacketTap(func(dir string, hdr ipv4.Header, _ []byte) {
				if dir == "rx" && hdr.Dst != sc.ServiceAddr() && !s.Owns(hdr.Dst) {
					o.overheard++
				}
			})
		}
		ec := startEchoClient(t, sc, 256*1024)
		if err := sc.RunUntil(func() bool { return ec.received > 64*1024 }, 60*time.Second); err != nil {
			t.Fatalf("warm-up: %v (received=%d)", err, ec.received)
		}
		sc.Group.CrashPrimary()
		if err := sc.RunUntil(func() bool { return ec.closed }, 10*time.Minute); err != nil {
			t.Fatalf("post-failover run: %v (received=%d)", err, ec.received)
		}
		ec.check(t)
		o.received, o.badAt, o.err, o.closedAt = ec.received, ec.badAt, ec.err, ec.closedAt
		o.lan, o.client = sc.ServerLAN.Stats(), sc.ClientLink.Stats()
		o.primary, o.secondary = sc.Group.PrimaryBridge().Stats(), sc.Group.SecondaryBridge().Stats()
		o.executed = sc.Sched.Executed()
		return o
	}
	skipped, tapped := run(false), run(true)
	if tapped.overheard == 0 {
		t.Fatal("the secondary overheard no frames")
	}
	if skipped.executed+tapped.overheard != tapped.executed {
		t.Errorf("executed %d events untapped, %d tapped: want a difference of the %d overheard frames",
			skipped.executed, tapped.executed, tapped.overheard)
	}
	skipped.executed, skipped.overheard = tapped.executed, tapped.overheard
	if skipped != tapped {
		t.Errorf("runs differ:\nuntapped %+v\ntapped   %+v", skipped, tapped)
	}
}

// TestFailoverSecondaryMidStream also covers the degraded send paths: the
// section 6 drain of the primary's queue and forwardDegraded.
func TestFailoverSecondaryMidStream(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	checkSeals := tapSeals(sc)
	ec := startEchoClient(t, sc, 512*1024)

	if err := sc.RunUntil(func() bool { return ec.received > 64*1024 }, 60*time.Second); err != nil {
		t.Fatalf("warm-up: %v (received=%d)", err, ec.received)
	}
	sc.Group.Crash(1)

	if err := sc.RunUntil(func() bool { return ec.closed }, 10*time.Minute); err != nil {
		t.Fatalf("post-failure run: %v (sent=%d received=%d eof=%v)",
			err, ec.sent, ec.received, ec.eof)
	}
	ec.check(t)
	checkSeals(t)
	if !sc.Group.PrimaryBridge().Degraded() {
		t.Error("primary bridge did not degrade after secondary failure")
	}
}
