package apps

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
	"weak"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

var pairServerAddr = ipv4.MustParseAddr("10.9.0.1")

// hostPair wires a server host (10.9.0.1) and a client host on one segment.
func hostPair() (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	sched := sim.New(11)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	pfx := ipv4.PrefixFrom(ipv4.MustParseAddr("10.9.0.0"), 24)
	srv := netstack.NewHost(sched, "server", netstack.DefaultProfile())
	srv.AttachIface(seg, ethernet.MAC{2, 0, 0, 9, 0, 1}, pairServerAddr, pfx)
	cl := netstack.NewHost(sched, "client", netstack.DefaultProfile())
	cl.AttachIface(seg, ethernet.MAC{2, 0, 0, 9, 0, 2}, ipv4.MustParseAddr("10.9.0.2"), pfx)
	return sched, srv, cl
}

// TestSendPatternGeneratesOnce serves one 128 KiB reply and one 128 KiB
// push and counts the bytes each sender generates. Every byte is generated
// when the send buffer has room for it and never again; a sender that
// refills its whole scratch buffer on every pump generates about eighteen
// times the payload.
func TestSendPatternGeneratesOnce(t *testing.T) {
	var generated int64
	fillPattern = func(p []byte, off int64) {
		generated += int64(len(p))
		Pattern(p, off)
	}
	defer func() { fillPattern = Pattern }()

	const payload = 128 << 10
	for _, sender := range []struct {
		name  string
		start func(srv, cl *tcp.Stack, sched *sim.Scheduler) (delivered func() bool, err error)
	}{
		{"ReqReply", func(srv, cl *tcp.Stack, sched *sim.Scheduler) (func() bool, error) {
			if _, err := NewReqReplyServer(srv, 7); err != nil {
				return nil, err
			}
			c, err := NewReqReplyClient(cl, sched, pairServerAddr, 7)
			if err != nil {
				return nil, err
			}
			done := false
			c.Request(payload, func(time.Duration) { done = true })
			return func() bool { return done }, nil
		}},
		{"PushServer", func(srv, cl *tcp.Stack, sched *sim.Scheduler) (func() bool, error) {
			if _, err := NewPushServer(srv, 7, payload); err != nil {
				return nil, err
			}
			c, err := cl.Dial(pairServerAddr, 7)
			if err != nil {
				return nil, err
			}
			r := NewReceiver(c, sched)
			return func() bool { return r.EOF && r.Received == payload && r.BadAt < 0 }, nil
		}},
	} {
		generated = 0
		sched, srv, cl := hostPair()
		delivered, err := sender.start(srv.TCP(), cl.TCP(), sched)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !delivered() {
			t.Fatalf("%s: payload not delivered intact", sender.name)
		}
		if limit := int64(payload + srv.TCP().Config().SendBufSize); generated < payload || generated > limit {
			t.Fatalf("%s: generated %d pattern bytes for a %d-byte payload, want at most %d", sender.name, generated, payload, limit)
		}
	}
}

// TestScratchSharedPerEventLoop: the copy buffer belongs to the event loop,
// not to a stack. The server's and the client's connection on one scheduler
// are handed one backing array; a connection on a second scheduler gets its
// own, so independent loops on separate goroutines never share it.
func TestScratchSharedPerEventLoop(t *testing.T) {
	connect := func() (server, client *tcp.Conn) {
		sched, srv, cl := hostPair()
		if _, err := srv.TCP().Listen(7, func(c *tcp.Conn) { server = c }); err != nil {
			t.Fatal(err)
		}
		client, err := cl.TCP().Dial(pairServerAddr, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.RunUntil(time.Second); err != nil || server == nil {
			t.Fatalf("no connection accepted (%v)", err)
		}
		return server, client
	}
	base := func(c *tcp.Conn) *byte { return unsafe.SliceData(scratch(c)) }
	server, client := connect()
	if base(server) != base(client) {
		t.Error("server and client on one event loop hold two scratch buffers, want one")
	}
	if other, _ := connect(); base(other) == base(server) {
		t.Error("two event loops share one scratch buffer, want one each")
	}
}

// TestTimeWaitFreesTransfer: the side that closes first lingers 2 MSL in
// TIME-WAIT, but its application ends as the linger starts — the connection
// drops its callbacks, so the Transfer and the closures around it are
// garbage while the stack holds the linger in a record of its own. An
// upload's client closes first on the connection it dialed, a PushServer on
// the one it accepted.
func TestTimeWaitFreesTransfer(t *testing.T) {
	for _, side := range []string{"dialed upload", "accepted push"} {
		sched, srv, cl := hostPair()
		var tr *Transfer
		if side == "dialed upload" {
			if _, err := NewSinkServer(srv.TCP(), 7); err != nil {
				t.Fatal(err)
			}
			var err error
			if tr, err = NewBulkSend(cl.TCP(), sched, pairServerAddr, 7, 64<<10); err != nil {
				t.Fatal(err)
			}
		} else {
			// NewPushServer's accept, keeping the Transfer it starts.
			if _, err := srv.TCP().Listen(7, func(c *tcp.Conn) { tr = (&Transfer{Total: 64 << 10}).stream(c, sched) }); err != nil {
				t.Fatal(err)
			}
			c, err := cl.TCP().Dial(pairServerAddr, 7)
			if err != nil {
				t.Fatal(err)
			}
			NewReceiver(c, sched)
			for tr == nil && sched.Step() {
			}
		}
		conn := tr.Conn
		for conn.State() != tcp.StateTimeWait && sched.Step() {
		}
		if tr.Err != nil || tr.Sent != tr.Total || conn.State() != tcp.StateTimeWait {
			t.Fatalf("%s: sent %d of %d bytes, %v, in %v; want all of them, nil, in TIME-WAIT", side, tr.Sent, tr.Total, tr.Err, conn.State())
		}
		transfer := weak.Make(tr)
		tr = nil
		runtime.GC()
		if transfer.Value() != nil {
			t.Errorf("%s: the Transfer outlives its OnClose: the connection in TIME-WAIT still reaches it", side)
		}
		stack := cl.TCP() // the side that closes first
		if side == "accepted push" {
			stack = srv.TCP()
		}
		if conn.State() != tcp.StateTimeWait || !slices.Contains(stack.Endpoints(), tcp.Endpoint{Tuple: conn.Tuple(), State: tcp.StateTimeWait}) {
			t.Errorf("%s: connection in %v after the collection, its stack holding %v; want TIME-WAIT in both", side, conn.State(), stack.Endpoints())
		}
	}
}

// liveHeapAfterAccepts builds a host pair, installs a server with listen,
// opens conns idle connections to it and returns the live heap that took,
// in bytes and in objects.
func liveHeapAfterAccepts(t *testing.T, conns int, listen func(*tcp.Stack, uint16) error) (bytes, objects int64) {
	t.Helper()
	heap := func() (int64, int64) {
		runtime.GC()
		runtime.GC() // the second empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), int64(ms.HeapObjects)
	}
	before, objBefore := heap()
	sched, srv, cl := hostPair()
	if err := listen(srv.TCP(), 7); err != nil {
		t.Fatal(err)
	}
	established := 0
	for i := 0; i < conns; i++ {
		c, err := cl.TCP().Dial(pairServerAddr, 7)
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished(func() { established++ })
	}
	if err := sched.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if established != conns || len(srv.TCP().Endpoints()) != conns {
		t.Fatalf("%d of %d connections established, %d accepted", established, conns, len(srv.TCP().Endpoints()))
	}
	after, objAfter := heap()
	runtime.KeepAlive(sched)
	runtime.KeepAlive(srv)
	runtime.KeepAlive(cl)
	return after - before, objAfter - objBefore
}

// TestIdleConnectionHeapGate: an accepted connection that has not yet
// carried a byte costs its server application's own state and no copy
// buffer; the scratch is the event loop's, allocated on first use. The bare
// accept itself is a handful of heap objects per connection pair — the two
// Conns with their rings and RTT estimators embedded, flow-table and timer
// state — and no ring storage before the first byte. A Conn stays in the
// 320-byte size class, which a one-byte close code and TCP's quantities at
// int32 reached from the 352-byte one (itself reached from 448 by one timer
// slot for retransmit, persist and TIME-WAIT and 40-byte rings): a field
// more must not move every connection back.
func TestIdleConnectionHeapGate(t *testing.T) {
	if size := unsafe.Sizeof(tcp.Conn{}); size > 320 {
		t.Errorf("tcp.Conn is %d bytes, want at most 320", size)
	}
	if size := unsafe.Sizeof(tcp.ByteRing{}); size > 40 {
		t.Errorf("tcp.ByteRing is %d bytes, want at most 40 (its out-of-order list behind a pointer)", size)
	}
	const conns = 256
	bare, bareObjects := liveHeapAfterAccepts(t, conns, func(s *tcp.Stack, port uint16) error {
		_, err := s.Listen(port, func(*tcp.Conn) {})
		return err
	})
	perPair, perPairBytes := float64(bareObjects)/conns, float64(bare)/conns
	t.Logf("bare accept: %.0f B and %.1f heap objects per connection pair", perPairBytes, perPair)
	if perPair >= 9 {
		t.Errorf("bare accept: %.1f heap objects per connection pair, want under 9 (7.7 with the estimators embedded, 9.7 with each a heap object)", perPair)
	}
	if perPairBytes > 1500 {
		t.Errorf("bare accept: %.0f B per connection pair, want at most 1500 (1 457 with 320-byte Conns, 1 521 with 352-byte ones, 1 713 with 448-byte ones)", perPairBytes)
	}
	for _, srv := range []struct {
		name   string
		listen func(*tcp.Stack, uint16) error
	}{
		{"ReqReply", func(s *tcp.Stack, port uint16) error { _, err := NewReqReplyServer(s, port); return err }},
		{"Sink", func(s *tcp.Stack, port uint16) error { _, err := NewSinkServer(s, port); return err }},
		{"HTTP", func(s *tcp.Stack, port uint16) error { _, err := NewHTTPServer(s, port); return err }},
	} {
		live, _ := liveHeapAfterAccepts(t, conns, srv.listen)
		perConn := float64(live-bare) / conns
		t.Logf("%s: %.0f B of live heap per idle connection beyond a bare accept", srv.name, perConn)
		if perConn >= 2048 {
			t.Errorf("%s: %.0f B of live heap per idle connection beyond a bare accept, want under 2048", srv.name, perConn)
		}
	}
}
