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

// echoServer installs the echo service on port 80.
func echoServer(h *netstack.Host) error {
	_, err := apps.NewEchoServer(h.TCP(), 80)
	return err
}

// chainOptions is the LAN testbed with the three-way chain.
func chainOptions() tcpfailover.Options {
	o := tcpfailover.LANOptions()
	o.Backups = 2
	return o
}

// echoClient drives a client connection that sends total bytes and expects
// them echoed back.
type echoClient struct {
	outcome
	conn  *tcp.Conn
	sent  int64
	badAt int64 // where the stream first departs from the pattern, or -1
	eof   bool
}

func startEchoClient(t *testing.T, sc *tcpfailover.Scenario, total int64) *echoClient {
	t.Helper()
	return startEchoClientPort(t, sc, total, 80)
}

func startEchoClientPort(t *testing.T, sc *tcpfailover.Scenario, total int64, port uint16) *echoClient {
	t.Helper()
	return driven(t, sc, func(sc *tcpfailover.Scenario) (*echoClient, error) {
		return dialEcho(sc, sc.ServiceAddr(), total, port)
	})
}

func dialEcho(sc *tcpfailover.Scenario, to ipv4.Addr, total int64, port uint16) (*echoClient, error) {
	conn, err := sc.Client.TCP().Dial(to, port)
	if err != nil {
		return nil, err
	}
	ec := &echoClient{conn: conn, badAt: -1}
	chunk := make([]byte, 16*1024)
	pump := func() {
		for ec.sent < total {
			n := min(int64(len(chunk)), total-ec.sent)
			apps.Pattern(chunk[:n], ec.sent)
			m, werr := conn.Write(chunk[:n])
			if werr != nil || m == 0 {
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
		n, rerr := conn.Read(rbuf)
		for ; n > 0; n, rerr = conn.Read(rbuf) {
			if i := apps.VerifyPattern(rbuf[:n], ec.received); i >= 0 && ec.badAt < 0 {
				ec.badAt = ec.received + int64(i)
			}
			ec.read(rbuf[:n])
		}
		ec.eof = ec.eof || rerr == io.EOF
	})
	conn.OnClose(func(err error) { ec.close(sc, err) })
	return ec, nil
}

func TestReplicatedEchoFaultFree(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	ec := startEchoClient(t, sc, 200*1024)
	runUntil(t, sc, func() bool { return ec.closed }, 5*time.Minute)
	pstats := sc.Group.PrimaryBridge().Stats()
	if pstats.BytesMatched < 200*1024 {
		t.Errorf("primary bridge matched %d bytes, want >= %d", pstats.BytesMatched, 200*1024)
	}
	sstats := sc.Group.SecondaryBridge().Stats()
	if sstats.SnoopedIn == 0 || sstats.DivertedOut == 0 {
		t.Errorf("secondary bridge inactive: %+v", sstats)
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
	type run struct {
		received, badAt int64
		err             error
		closedAt        time.Duration
		lan, client     ethernet.Stats
		primary         core.PrimaryStats
		secondary       core.SecondaryStats
		executed        int
		overheard       int
	}
	do := func(tap bool) run {
		sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
		var o run
		if tap {
			s := sc.Secondary
			s.AddPacketTap(func(dir string, hdr ipv4.Header, _ []byte) {
				if dir == "rx" && hdr.Dst != sc.ServiceAddr() && !s.Owns(hdr.Dst) {
					o.overheard++
				}
			})
		}
		ec := startEchoClient(t, sc, 256*1024)
		runUntil(t, sc, func() bool { return ec.received > 64*1024 }, 60*time.Second)
		sc.Group.Crash(0)
		runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)
		o.received, o.badAt, o.err, o.closedAt = ec.received, ec.badAt, ec.err, ec.closedAt
		o.lan, o.client = sc.ServerLAN.Stats(), sc.ClientLink.Stats()
		o.primary, o.secondary = sc.Group.PrimaryBridge().Stats(), sc.Group.SecondaryBridge().Stats()
		o.executed = sc.Sched.Executed()
		return o
	}
	skipped, tapped := do(false), do(true)
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
