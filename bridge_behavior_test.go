package tcpfailover_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// TestCombinedSynUsesMinimumMSS: "The MSS field of that segment is set to
// the minimum of the MSS fields contained in the SYN segments that the TCP
// layers of the primary and secondary servers created" (section 7.1).
func TestCombinedSynUsesMinimumMSS(t *testing.T) {
	opts := tcpfailover.LANOptions()
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The secondary's TCP layer announces a smaller MSS than the primary's.
	sc.Secondary.SetTCPConfig(tcp.Config{MSS: 1000})
	if err := sc.Group.OnEach(func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 80)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sc.Start()

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	established := false
	conn.OnEstablished(func() { established = true })
	if err := sc.RunUntil(func() bool { return established }, time.Minute); err != nil {
		t.Fatal(err)
	}
	// min(1460, 1000): the client may send at most the smaller of the two
	// replicas' announcements. (The 8-byte diversion headroom applies to
	// the secondary's *sending* MSS, which the client's clamped SYN governs.)
	if got := conn.MSS(); got != 1000 {
		t.Errorf("client effective MSS = %d, want 1000 (min of the replicas')", got)
	}
}

// TestDivergenceResetsConnection violates the paper's per-connection
// determinism assumption on purpose: the last member's reply departs from
// the others' after a common prefix. The bridge that matches the two
// streams must release none of the differing bytes: the client's
// connection ends in a reset after at most the common prefix, one
// divergence is counted, and no packet buffer is left once the group is
// quiet. In the pair the resets on the client's behalf also end both
// replicas' connections, so within a second nothing of it is left; in the
// chain the log reports what each member still holds.
func TestDivergenceResetsConnection(t *testing.T) {
	const port, prefix, total = 9000, 3000, 8192
	for i, name := range []string{"pair", "chain"} {
		backups := i + 1
		t.Run(name, func(t *testing.T) {
			netbuf.SetLeakCheck(true)
			defer netbuf.SetLeakCheck(false)
			opts := tcpfailover.LANOptions()
			opts.ServerPorts, opts.Backups = []uint16{port}, backups
			sc, err := tcpfailover.NewScenario(opts)
			if err != nil {
				t.Fatal(err)
			}
			members := []*netstack.Host{sc.Primary, sc.Secondary, sc.Tertiary}[:backups+1]
			for i, h := range members {
				reply := make([]byte, total)
				apps.Pattern(reply, 0)
				for j := prefix; i == backups && j < total; j++ {
					reply[j] ^= 0xff
				}
				_, _ = h.TCP().Listen(port, func(c *tcp.Conn) { _, _ = c.Write(reply); c.Close() })
			}
			sc.Start()
			conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), port)
			if err != nil {
				t.Fatal(err)
			}
			recv, closed, closeErr := apps.NewReceiver(conn, sc.Sched), false, error(nil)
			conn.OnClose(func(err error) { closed, closeErr = true, err })
			if err := sc.RunUntil(func() bool { return closed }, time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := sc.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			var conns []int
			var divergences int64
			for _, h := range members {
				v, _ := sc.Obs.Lookup(`bridge_divergences_total{host="` + h.Name() + `"}`)
				divergences += v
				conns = append(conns, len(h.TCP().Conns()))
			}
			if !errors.Is(closeErr, tcp.ErrConnReset) || recv.Received > prefix || recv.BadAt >= 0 || divergences != 1 {
				t.Errorf("client closed with %v after %d bytes (first bad at %d), %d divergences; want a reset, at most the %d-byte common prefix, 1",
					closeErr, recv.Received, recv.BadAt, divergences, prefix)
			}
			records := sc.Group.PrimaryBridge().Conns()
			t.Logf("1 s after the reset: member connections %v, head bridge records %d", conns, records)
			if backups == 1 && (conns[0] != 0 || conns[1] != 0 || records != 0) {
				t.Errorf("1 s after the reset the members hold %v connections and the bridge %d records, want none", conns, records)
			}
			sc.Group.Stop()
			if err := sc.Run(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if live := netbuf.Live(); live != 0 {
				t.Errorf("%d packet buffers live at quiescence", live)
			}
		})
	}
}

// TestIdleConnectionsHoldNoRingStorage: a ring holds storage only while it
// holds bytes, in TCP as in the bridge. Clients each finish one echo round
// through the pair and through the chain and keep their connections open;
// once the scheduler is idle no ring anywhere — the client's, a member's
// TCP layer, a bridge's match queue — holds storage, while every
// connection is still ESTABLISHED and ready for its next round.
func TestIdleConnectionsHoldNoRingStorage(t *testing.T) {
	const conns, size = 8, 3000
	for i, name := range []string{"pair", "chain"} {
		backups := i + 1
		t.Run(name, func(t *testing.T) {
			netbuf.SetLeakCheck(true)
			defer netbuf.SetLeakCheck(false)
			opts := tcpfailover.LANOptions()
			opts.Backups = backups
			sc := newEchoScenario(t, opts)
			var clients []*tcp.Conn
			echoed, rbuf := 0, make([]byte, 4096)
			for j := range conns {
				c, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
				if err != nil {
					t.Fatal(err)
				}
				msg, got := make([]byte, size), []byte(nil)
				apps.Pattern(msg, int64(j*size))
				c.OnEstablished(func() { _, _ = c.Write(msg) })
				c.OnReadable(func() {
					for n := 1; n > 0; {
						n, _ = c.Read(rbuf)
						got = append(got, rbuf[:n]...)
					}
					if len(got) == size && string(got) == string(msg) {
						echoed++
					}
				})
				clients = append(clients, c)
			}
			if err := sc.RunUntil(func() bool { return echoed == conns }, time.Minute); err != nil {
				t.Fatalf("%v: %d of %d rounds echoed intact", err, echoed, conns)
			}
			sc.Group.Stop()
			if err := sc.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			if n := sc.Sched.PendingEvents(); n != 0 {
				t.Fatalf("%d events pending a minute after the last round", n)
			}
			for _, c := range clients {
				if c.State() != tcp.StateEstablished {
					t.Fatalf("a client connection is %v, want ESTABLISHED", c.State())
				}
			}
			members := []*netstack.Host{sc.Primary, sc.Secondary, sc.Tertiary}[:backups+1]
			for _, h := range members {
				if n := len(h.TCP().Conns()); n != conns {
					t.Errorf("%s holds %d connections, want %d", h.Name(), n, conns)
				}
			}
			if n := sc.Group.PrimaryBridge().Conns(); n != conns {
				t.Errorf("the bridge holds %d records, want %d", n, conns)
			}
			if live := netbuf.LiveBytes(); live != 0 {
				t.Errorf("%d bytes of ring storage live with every connection idle", live)
			}
		})
	}
}

// TestBridgeGarbageCollectsClosedConnections: after a clean close the
// bridge deletes its per-connection structures (section 8).
func TestBridgeGarbageCollectsClosedConnections(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	ec := startEchoClient(t, sc, 8192)
	if err := sc.RunUntil(func() bool { return ec.closed }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	ec.check(t)
	stats := sc.Group.PrimaryBridge().Stats()
	if stats.ConnsOpened == 0 || stats.ConnsClosed != stats.ConnsOpened {
		t.Errorf("bridge records: opened=%d closed=%d", stats.ConnsOpened, stats.ConnsClosed)
	}
	if got := sc.Group.PrimaryBridge().Conns(); got != 0 {
		t.Errorf("bridge still tracks %d connections", got)
	}
}

// TestLateFinFromSecondarySynthesizedAck: "When the bridge receives a FIN
// that S sent after the bridge removed all internal data structures
// associated with the connection, it creates an ACK and sends it back to
// S" (section 8). The secondary is made deaf to the client's final ACK, so
// it retransmits its FIN after the bridge has forgotten the connection.
func TestLateFinFromSecondarySynthesizedAck(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	ec := startEchoClient(t, sc, 8192)

	// Once the client has consumed the server stream (EOF seen), drop every
	// client frame at the secondary's NIC: the closing ACK never arrives.
	armed := false
	err := sc.Faults.Impair(fault.Impairment{
		Link: fault.LinkServerLAN, To: fault.RoleSecondary,
		Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
			if !armed {
				return false
			}
			hdr, _, err := ipv4.Unmarshal(p)
			return err == nil && hdr.Protocol == ipv4.ProtoTCP && hdr.Src == tcpfailover.ClientAddr
		}, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.RunUntil(func() bool { return ec.eof }, 10*time.Minute); err != nil {
		t.Fatalf("stream: %v", err)
	}
	armed = true

	done := func() bool {
		return ec.closed && sc.Group.PrimaryBridge().Stats().LateFinAcks > 0
	}
	if err := sc.RunUntil(done, 30*time.Minute); err != nil {
		t.Fatalf("late-FIN handling: %v (closed=%v lateAcks=%d)",
			err, ec.closed, sc.Group.PrimaryBridge().Stats().LateFinAcks)
	}
	// The synthesized ACK must have terminated the secondary's connection.
	armed = false
	if err := sc.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, c := range sc.Secondary.TCP().Conns() {
		if c.Tuple().RemoteAddr == tcpfailover.ClientAddr && c.State() != tcp.StateClosed {
			t.Errorf("secondary connection still in %v", c.State())
		}
	}
}

// TestLateClientFinIsAcknowledged is the client's side of the same rule: the
// server closes first, the acknowledgment of the client's FIN is lost, and by
// the time the client retransmits its FIN the bridge has deleted the
// connection. The bridge must answer from the service address, through the
// path every client-bound segment takes, so the client closes as it would
// against an unreplicated server: same outcome, same time, one late ACK, and
// no frame from any other address.
func TestLateClientFinIsAcknowledged(t *testing.T) {
	// run returns when the client's OnClose fired and with what, the primary
	// bridge's late-FIN ACK count, and the sources of the TCP segments the
	// client received. (A chain's interior matcher snoops the same FIN and
	// answers it too; that ACK is diverted to the head, which drops it.)
	run := func(t *testing.T, opts tcpfailover.Options) (time.Duration, error, int64, map[ipv4.Addr]bool) {
		sc, err := tcpfailover.NewScenario(opts)
		if err != nil {
			t.Fatal(err)
		}
		install := func(h *netstack.Host) error {
			_, err := apps.NewPushServer(h.TCP(), 80, 4096)
			return err
		}
		if sc.Group != nil {
			err = sc.Group.OnEach(install)
		} else {
			err = install(sc.Primary)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Drop, once, the first bare ACK sent to the client after its FIN.
		clientFin := false
		sources := map[ipv4.Addr]bool{}
		sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
			if hdr.Protocol != ipv4.ProtoTCP || !tcp.RawSane(payload) {
				return
			}
			if dir == "rx" {
				sources[hdr.Src] = true
			} else if tcp.RawFlags(payload).Has(tcp.FlagFIN) {
				clientFin = true
			}
		})
		err = sc.Faults.Impair(fault.Impairment{
			Link: fault.LinkClientLink, To: fault.RoleClient,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				hdr, seg, err := ipv4.Unmarshal(p)
				return clientFin && err == nil && hdr.Protocol == ipv4.ProtoTCP && tcp.RawSane(seg) &&
					tcp.RawFlags(seg) == tcp.FlagACK && len(tcp.RawPayload(seg)) == 0
			}, 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		sc.Start()

		conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		recv := apps.NewReceiver(conn, sc.Sched)
		closed, closedAt, closeErr := false, time.Duration(0), error(nil)
		conn.OnClose(func(err error) { closed, closedAt, closeErr = true, sc.Now(), err })
		if err := sc.RunUntil(func() bool { return closed }, 30*time.Minute); err != nil {
			t.Fatalf("close: %v", err)
		}
		if recv.Received != 4096 || recv.BadAt >= 0 {
			t.Errorf("received %d bytes (corrupt at %d), want 4096 intact", recv.Received, recv.BadAt)
		}
		var late int64
		if sc.Group != nil {
			late = sc.Group.PrimaryBridge().Stats().LateFinAcks
		}
		return closedAt, closeErr, late, sources
	}

	plain := tcpfailover.LANOptions()
	plain.Unreplicated = true
	wantAt, wantErr, _, _ := run(t, plain)
	if wantErr != nil {
		t.Fatalf("unreplicated close: %v", wantErr)
	}
	for _, backups := range []int{1, 2} {
		opts := tcpfailover.LANOptions()
		opts.Backups = backups
		at, err, late, sources := run(t, opts)
		if err != nil {
			t.Errorf("backups=%d: client closed with %v after %v, want a clean close (unreplicated: %v)",
				backups, err, at, wantAt)
		}
		if d := at - wantAt; d < -time.Second || d > time.Second {
			t.Errorf("backups=%d: closed at %v, unreplicated at %v", backups, at, wantAt)
		}
		if late != 1 {
			t.Errorf("backups=%d: LateFinAcks = %d, want 1", backups, late)
		}
		if len(sources) != 1 || !sources[tcpfailover.PrimaryAddr] {
			t.Errorf("backups=%d: client received TCP from %v, want only the service address", backups, sources)
		}
		t.Logf("backups=%d: closed at %v (unreplicated %v), %d late-FIN ACK", backups, at, wantAt, late)
	}
}

// TestEchoEOFServerCloses exercises the server-side close ordering: the
// client half-closes first; both replicas observe EOF, close, and their
// merged FIN reaches the client exactly once.
func TestTerminationClientClosesFirst(t *testing.T) {
	sc := newEchoScenario(t, tcpfailover.LANOptions())
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	gotEOF := false
	closed := false
	conn.OnEstablished(func() {
		_, _ = conn.Write([]byte("solo message"))
		conn.Close() // immediate half-close
	})
	buf := make([]byte, 256)
	var echoed []byte
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(buf)
			if n > 0 {
				echoed = append(echoed, buf[:n]...)
				continue
			}
			if rerr == io.EOF {
				gotEOF = true
			}
			return
		}
	})
	conn.OnClose(func(error) { closed = true })
	if err := sc.RunUntil(func() bool { return closed }, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !gotEOF || string(echoed) != "solo message" {
		t.Errorf("eof=%v echoed=%q", gotEOF, echoed)
	}
}
