package tcpfailover_test

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// TestCombinedSynUsesMinimumMSS: "The MSS field of that segment is set to
// the minimum of the MSS fields contained in the SYN segments that the TCP
// layers of the primary and secondary servers created" (section 7.1).
func TestCombinedSynUsesMinimumMSS(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), func(h *netstack.Host) error {
		if h.Name() == "secondary" {
			// The secondary's TCP layer announces a smaller MSS than the primary's.
			h.SetTCPConfig(tcp.Config{MSS: 1000})
		}
		return echoServer(h)
	})
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	established := false
	conn.OnEstablished(func() { established = true })
	runUntil(t, sc, func() bool { return established }, time.Minute)
	// min(1460, 1000): the client may send at most the smaller of the two
	// replicas' announcements. (The 8-byte diversion headroom applies to
	// the secondary's *sending* MSS, which the client's clamped SYN governs.)
	if got := conn.MSS(); got != 1000 {
		t.Errorf("client effective MSS = %d, want 1000 (min of the replicas')", got)
	}
}

// TestSecondaryLostMidHandshake: the secondary crashes as the client dials,
// so the primary's SYN-ACK waits in the bridge for a partner that never
// comes. Degrading adopts the primary's handshake as the secondary's
// (section 6) and releases the SYN-ACK: the client connects on its one SYN,
// inside the initial RTO, not after retransmitting it.
func TestSecondaryLostMidHandshake(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	syns := 0
	sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP && tcp.RawSane(seg) && tcp.RawFlags(seg).Has(tcp.FlagSYN) {
			syns++
		}
	})
	dialed := sc.Now()
	ec := startEchoClient(t, sc, 8192)
	sc.Group.Crash(1)
	runUntil(t, sc, func() bool { return ec.conn.State() != tcp.StateSynSent }, dialed+time.Minute)
	// Established, the client has already sent its 8 KiB and its FIN.
	if took := sc.Now() - dialed; ec.conn.State() == tcp.StateClosed || syns != 1 || took >= time.Second {
		t.Fatalf("left SYN-SENT for %v after %v and %d SYNs, want a connection on the first SYN, inside the 1 s initial RTO",
			ec.conn.State(), took, syns)
	}
	runUntil(t, sc, func() bool { return ec.closed }, time.Hour)
}

// flipEcho is the echo service, except on the host named flipper, which
// inverts every byte past prefix of what it echoes (for a transfer that fits
// the send buffer): the replicas' streams diverge there.
func flipEcho(flipper string, prefix int) func(*netstack.Host) error {
	return func(h *netstack.Host) error {
		if h.Name() != flipper {
			return echoServer(h)
		}
		_, err := h.TCP().Listen(80, func(c *tcp.Conn) {
			at, buf := 0, make([]byte, 16*1024)
			c.OnReadable(func() {
				n, err := c.Read(buf)
				for ; n > 0; n, err = c.Read(buf) {
					for i := max(prefix-at, 0); i < n; i++ {
						buf[i] ^= 0xff
					}
					_, _ = c.Write(buf[:n])
					at += n
				}
				if err == io.EOF {
					c.Close()
				}
			})
		})
		return err
	}
}

// TestDivergenceResetsConnection violates the paper's per-connection
// determinism assumption on purpose: the last member's echo departs from the
// others' after a common prefix. The bridge that matches the two streams
// must release none of the differing bytes: the client's connection ends in
// a reset after at most the common prefix, and one divergence is counted. In
// the pair the resets on the client's behalf also end both replicas'
// connections, so within a second nothing of it is left; in the chain the log
// reports what each member still holds. (The client is not driven: its twin
// would not diverge.)
func TestDivergenceResetsConnection(t *testing.T) {
	const prefix, total = 3000, 8192
	for i, name := range []string{"pair", "chain"} {
		backups := i + 1
		t.Run(name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			opts.Backups = backups
			sc := newScenario(t, opts, flipEcho([]string{"secondary", "tertiary"}[i], prefix))
			ec, err := dialEcho(sc, sc.ServiceAddr(), total, 80)
			if err != nil {
				t.Fatal(err)
			}
			runUntil(t, sc, func() bool { return ec.closed }, time.Minute)
			if err := sc.Run(time.Second); err != nil {
				t.Fatal(err)
			}
			var conns []int
			var divergences int64
			for _, h := range []*netstack.Host{sc.Primary, sc.Secondary, sc.Tertiary}[:backups+1] {
				v, _ := sc.Obs.Lookup(`bridge_divergences_total{host="` + h.Name() + `"}`)
				divergences += v
				conns = append(conns, len(h.TCP().Endpoints()))
			}
			if !errors.Is(ec.err, tcp.ErrConnReset) || ec.received > prefix || ec.badAt >= 0 || divergences != 1 {
				t.Errorf("client closed with %v after %d bytes (first bad at %d), %d divergences; want a reset, at most the %d-byte common prefix, 1",
					ec.err, ec.received, ec.badAt, divergences, prefix)
			}
			records := sc.Group.PrimaryBridge().Conns()
			t.Logf("1 s after the reset: member connections %v, head bridge records %d", conns, records)
			if backups == 1 && (conns[0] != 0 || conns[1] != 0 || records != 0) {
				t.Errorf("1 s after the reset the members hold %v connections and the bridge %d records, want none", conns, records)
			}
		})
	}
}

// TestIdleConnectionsHoldNoRingStorage: a ring holds storage only while it
// holds bytes, in TCP as in the bridge. Clients each finish one request and
// its 3000-byte reply through the pair and through the chain and keep their
// connections open; a minute later every connection is still ESTABLISHED and
// ready for its next round, and the root checker's quiescence check finds no
// ring anywhere — the client's, a member's TCP layer, a bridge's match queue
// — holding storage.
func TestIdleConnectionsHoldNoRingStorage(t *testing.T) {
	const conns, size = 8, 3000
	for i, name := range []string{"pair", "chain"} {
		backups := i + 1
		t.Run(name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			opts.Backups = backups
			sc := newScenario(t, opts, func(h *netstack.Host) error {
				_, err := apps.NewReqReplyServer(h.TCP(), 80)
				return err
			})
			replied := 0
			for range conns {
				cl, err := apps.NewReqReplyClient(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 80)
				if err != nil {
					t.Fatal(err)
				}
				cl.Request(size, func(time.Duration) { replied++ })
			}
			runUntil(t, sc, func() bool { return replied == conns }, time.Minute)
			sc.Group.Stop()
			if err := sc.Run(time.Minute); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*netstack.Host{sc.Client, sc.Primary, sc.Secondary, sc.Tertiary}[:backups+2] {
				established := 0
				for _, e := range h.TCP().Endpoints() {
					if e.State == tcp.StateEstablished {
						established++
					}
				}
				if established != conns {
					t.Errorf("%s holds %d ESTABLISHED connections, want %d", h.Name(), established, conns)
				}
			}
			if n := sc.Group.PrimaryBridge().Conns(); n != conns {
				t.Errorf("the bridge holds %d records, want %d", n, conns)
			}
		})
	}
}

// TestBridgeGarbageCollectsClosedConnections: after a clean close the
// bridge deletes its per-connection structures (section 8). The client's
// OnClose fires as it enters TIME-WAIT, when the ACK that ends the members'
// LAST-ACK has just left it; the record goes once that ACK has crossed the
// bridge, within 10 ms.
func TestBridgeGarbageCollectsClosedConnections(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	ec := startEchoClient(t, sc, 8192)
	runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)
	runUntil(t, sc, func() bool { return sc.Group.PrimaryBridge().Conns() == 0 }, sc.Now()+10*time.Millisecond)
	stats := sc.Group.PrimaryBridge().Stats()
	if stats.ConnsOpened == 0 || stats.ConnsClosed != stats.ConnsOpened {
		t.Errorf("bridge records: opened=%d closed=%d", stats.ConnsOpened, stats.ConnsClosed)
	}
	if got := sc.Group.PrimaryBridge().Conns(); got != 0 {
		t.Errorf("bridge still tracks %d connections", got)
	}
}

// TestStraySegmentIsRefusedFromServiceAddress: a client data segment that
// reaches the pair after the bridge deleted its connection's record is
// post-cleanup traffic. It is no SYN, so it creates no record; the primary's
// TCP refuses it as RFC 793 says, and the bridge passes the refusal unchanged
// from the service address: the client gets the reset an unreplicated server
// sends it.
func TestStraySegmentIsRefusedFromServiceAddress(t *testing.T) {
	// refusals returns the resets the client receives from the service
	// address for stray, sent once its echo connection is gone everywhere.
	refusals := func(t *testing.T, opts tcpfailover.Options, stray tcp.Segment) []string {
		sc := newScenario(t, opts, echoServer)
		ec := startEchoClient(t, sc, 8192)
		gone := func() bool {
			return ec.closed && len(sc.Client.TCP().Endpoints()) == 0 && (sc.Group == nil || sc.Group.PrimaryBridge().Conns() == 0)
		}
		runUntil(t, sc, gone, 10*time.Minute)
		var got []string
		sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
			if dir == "rx" && hdr.Src == sc.ServiceAddr() && tcp.RawSane(seg) && tcp.RawFlags(seg).Has(tcp.FlagRST) {
				got = append(got, fmt.Sprintf("%v seq=%d ack=%d", tcp.RawFlags(seg), tcp.RawSeq(seg), tcp.RawAck(seg)))
			}
		})
		stray.SrcPort, stray.DstPort = ec.conn.Tuple().LocalPort, 80
		b := tcp.Marshal(tcpfailover.ClientAddr, sc.ServiceAddr(), &stray)
		if err := sc.Client.SendIP(tcpfailover.ClientAddr, sc.ServiceAddr(), ipv4.ProtoTCP, b); err != nil {
			t.Fatal(err)
		}
		if err := sc.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, tc := range []struct {
		name  string
		stray tcp.Segment
		want  string // the one reset RFC 793 answers it with
	}{
		{"no-ACK data", tcp.Segment{Seq: 1000, Flags: tcp.FlagPSH, Payload: []byte("late")}, "R. seq=0 ack=1004"},
		{"ACK-bearing data", tcp.Segment{Seq: 1000, Ack: 5000, Flags: tcp.FlagPSH | tcp.FlagACK, Payload: []byte("late")}, "R seq=5000 ack=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twin := tcpfailover.LANOptions()
			twin.Unreplicated = true
			want := refusals(t, twin, tc.stray)
			got := refusals(t, tcpfailover.LANOptions(), tc.stray)
			if !slices.Equal(want, []string{tc.want}) {
				t.Errorf("an unreplicated server answers with %q, want [%s]", want, tc.want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("through the pair the client receives %q, from an unreplicated server %q", got, want)
			}
		})
	}
}

// TestLateClientFinIsAcknowledged is the client's side of the same rule: the
// server closes first, the acknowledgment of the client's FIN is lost, and by
// the time the client retransmits its FIN the bridge has deleted the
// connection. The bridge must answer from the service address, through the
// path every client-bound segment takes, so the client closes as it would
// against an unreplicated server with the same loss: same outcome, same
// time, one late ACK. (The root checker's wire check holds every segment the
// client receives to the service address.)
func TestLateClientFinIsAcknowledged(t *testing.T) {
	// run returns when the client's OnClose fired and with what, and the
	// primary bridge's late-FIN ACK count. (A chain's interior matcher snoops
	// the same FIN and answers it too; that ACK is diverted to the head, which
	// drops it.)
	run := func(t *testing.T, opts tcpfailover.Options) (time.Duration, error, int64) {
		sc := newScenario(t, opts, func(h *netstack.Host) error {
			_, err := apps.NewPushServer(h.TCP(), 80, 4096)
			return err
		})
		// Drop, once, the first bare ACK sent to the client after its FIN.
		clientFin := false
		sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
			if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP && tcp.RawSane(payload) && tcp.RawFlags(payload).Has(tcp.FlagFIN) {
				clientFin = true
			}
		})
		err := sc.Faults.Impair(fault.Impairment{
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
		conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		recv := apps.NewReceiver(conn, sc.Sched)
		closed, closedAt, closeErr := false, time.Duration(0), error(nil)
		conn.OnClose(func(err error) { closed, closedAt, closeErr = true, sc.Now(), err })
		runUntil(t, sc, func() bool { return closed }, 30*time.Minute)
		if recv.Received != 4096 || recv.BadAt >= 0 {
			t.Errorf("received %d bytes (corrupt at %d), want 4096 intact", recv.Received, recv.BadAt)
		}
		var late int64
		if sc.Group != nil {
			late = sc.Group.PrimaryBridge().Stats().LateFinAcks
		}
		return closedAt, closeErr, late
	}

	plain := tcpfailover.LANOptions()
	plain.Unreplicated = true
	wantAt, wantErr, _ := run(t, plain)
	if wantErr != nil {
		t.Fatalf("unreplicated close: %v", wantErr)
	}
	for _, backups := range []int{1, 2} {
		opts := tcpfailover.LANOptions()
		opts.Backups = backups
		at, err, late := run(t, opts)
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
		t.Logf("backups=%d: closed at %v (unreplicated %v), %d late-FIN ACK", backups, at, wantAt, late)
	}
}

// TestTakeoverKeepsTimeWait: the server closes first, so once the client's
// FIN is acknowledged both members linger in TIME-WAIT. That ACK is lost,
// and the primary crashes before the client retransmits its FIN. The
// takeover re-keys the secondary's TIME-WAIT record onto the service
// address, so the retransmitted FIN draws an ACK from there, as the
// unreplicated server's would, and the client closes cleanly on it without
// an RST.
func TestTakeoverKeepsTimeWait(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), func(h *netstack.Host) error {
		_, err := apps.NewPushServer(h.TCP(), 80, 4096)
		return err
	})
	clientFin, resets := false, 0
	sc.Client.AddPacketTap(func(dir string, hdr ipv4.Header, seg []byte) {
		if hdr.Protocol != ipv4.ProtoTCP || !tcp.RawSane(seg) {
			return
		}
		switch f := tcp.RawFlags(seg); {
		case dir == "tx" && f.Has(tcp.FlagFIN):
			clientFin = true
		case dir == "rx" && f.Has(tcp.FlagRST):
			resets++
		}
	})
	dropped := false
	err := sc.Faults.Impair(fault.Impairment{
		Link: fault.LinkClientLink, To: fault.RoleClient,
		Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
			hdr, seg, err := ipv4.Unmarshal(p)
			drop := !dropped && clientFin && err == nil && hdr.Protocol == ipv4.ProtoTCP && tcp.RawSane(seg) &&
				tcp.RawFlags(seg) == tcp.FlagACK && len(tcp.RawPayload(seg)) == 0
			dropped = dropped || drop
			return drop
		}, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	recv := apps.NewReceiver(conn, sc.Sched)
	closed, closeErr := false, error(nil)
	conn.OnClose(func(err error) { closed, closeErr = true, err })
	runUntil(t, sc, func() bool { return dropped }, time.Minute)
	lingers := func(h *netstack.Host) bool {
		return slices.ContainsFunc(h.TCP().Endpoints(), func(e tcp.Endpoint) bool {
			return e.Tuple.RemotePort == conn.Tuple().LocalPort && e.State == tcp.StateTimeWait
		})
	}
	if closed || !lingers(sc.Primary) || !lingers(sc.Secondary) {
		t.Fatalf("at the lost ACK: client closed %v, primary lingering %v, secondary lingering %v; want false, true, true",
			closed, lingers(sc.Primary), lingers(sc.Secondary))
	}
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return closed }, time.Hour)
	if recv.Received != 4096 || recv.BadAt >= 0 || closeErr != nil || resets != 0 {
		t.Errorf("received %d bytes (corrupt at %d), closed with %v after %d RSTs; want 4096 intact, a clean close, none",
			recv.Received, recv.BadAt, closeErr, resets)
	}
	if !lingers(sc.Secondary) {
		t.Error("the secondary no longer lingers after acknowledging the FIN")
	}
}
