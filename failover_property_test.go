package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/arp"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
)

// The system's core guarantee beyond TestEnumerate's small runs: when a
// server fails mid-stream, with or without concurrent packet loss, the
// client's byte stream is delivered exactly once, in order, and the
// connection closes cleanly.

// memberNames names the pair's group positions in subtest names.
var memberNames = []string{"primary", "secondary"}

func propertyRun(t *testing.T, seed int64, crashFrac float64, crashPos int, lossRate float64) {
	t.Helper()
	opts := tcpfailover.LANOptions()
	opts.Seed = seed
	opts.ServerLAN.LossRate = lossRate
	opts.ClientLink.LossRate = lossRate
	sc := newScenario(t, opts, echoServer)

	const total = 192 * 1024
	ec := startEchoClient(t, sc, total)
	crashAt := int64(float64(total) * crashFrac)
	runUntil(t, sc, func() bool { return ec.received >= crashAt }, 10*time.Minute)
	sc.Group.Crash(crashPos)
}

func TestPropertyFailoverUnderLoss(t *testing.T) {
	// Failover while the network is independently dropping frames: the
	// takeover window and ordinary loss recovery compound.
	for pos, name := range memberNames {
		t.Run(name, func(t *testing.T) { propertyRun(t, int64(300+pos), 0.4, pos, 0.01) })
	}
}

// TestFailoverWithRouterARPDelay exercises the paper's interval T: the
// router's ARP table update lags the gratuitous announcement, so segments
// sent during T are lost and recovered by retransmission (section 5).
func TestFailoverWithRouterARPDelay(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.RouterARPDelay = 20 * time.Millisecond
	sc := newScenario(t, opts, echoServer)
	ec := startEchoClient(t, sc, 192*1024)
	runUntil(t, sc, func() bool { return ec.received > 64*1024 }, time.Minute)
	sc.Group.Crash(0)
}

// TestLostTakeoverAnnouncementIsRepeated loses the promoted secondary's
// first gratuitous ARP on the server LAN, so the router keeps sending the
// client's segments to the dead primary's MAC. The takeover announces the
// address again 2 s later (RFC 5227), which rebinds it; with one
// announcement the secondary's retransmissions run out and the client
// never learns the stream is dead.
func TestLostTakeoverAnnouncementIsRepeated(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Faults = &fault.Plan{Impairments: []fault.Impairment{{
		Link: fault.LinkServerLAN, From: fault.RoleSecondary,
		Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
			if _, _, err := ipv4.Unmarshal(p); err == nil {
				return false
			}
			pkt, err := arp.Unmarshal(p)
			return err == nil && pkt.SenderIP == tcpfailover.PrimaryAddr && pkt.TargetIP == pkt.SenderIP
		}, 1)},
	}}}
	sc := newScenario(t, opts, echoServer)
	ec := startEchoClient(t, sc, 192*1024)
	runUntil(t, sc, func() bool { return ec.received > 48*1024 }, time.Minute)
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return sc.Faults.Stats().Dropped == 1 }, time.Minute)
}

// TestColdARPConnection covers connection setup without pre-warmed caches:
// the ARP protocol itself must resolve every hop. Every cache is flushed
// before the dial, so each binding found after the transfer was learned
// from an ARP packet on the wire.
func TestColdARPConnection(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	client, routerLAN, routerWAN := sc.Client.Iface(0), sc.Router.Iface(0), sc.Router.Iface(1)
	primary, secondary := sc.Primary.Iface(0), sc.Secondary.Iface(0)
	for _, ifc := range []*netstack.Iface{client, routerLAN, routerWAN, primary, secondary} {
		ifc.ARP().Flush()
	}
	ec := startEchoClient(t, sc, 8192)
	runUntil(t, sc, func() bool { return ec.closed }, 5*time.Minute)
	for _, hop := range []struct {
		name string
		from *netstack.Iface
		to   ipv4.Addr
	}{
		{"client -> router", client, routerWAN.Addr()},
		{"router -> client", routerWAN, tcpfailover.ClientAddr},
		{"router -> primary", routerLAN, tcpfailover.PrimaryAddr},
		{"primary -> router", primary, routerLAN.Addr()},
		{"primary -> secondary", primary, tcpfailover.SecondaryAddr},
		{"secondary -> primary", secondary, tcpfailover.PrimaryAddr},
	} {
		if _, ok := hop.from.ARP().Lookup(hop.to); !ok {
			t.Errorf("%s: %v never resolved", hop.name, hop.to)
		}
	}
}

// TestManyConcurrentConnections puts several replicated connections through
// a failover at once.
func TestManyConcurrentConnections(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	const conns = 8
	const each = 48 * 1024
	clients := make([]*echoClient, conns)
	for i := range clients {
		clients[i] = startEchoClient(t, sc, each)
	}
	progressed := func() bool {
		for _, ec := range clients {
			if ec.received < each/4 {
				return false
			}
		}
		return true
	}
	runUntil(t, sc, progressed, 10*time.Minute)
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return !sc.Group.SecondaryBridge().Active() }, time.Minute)
	if got := sc.Group.SecondaryBridge().Stats().TakenOver; got != conns {
		t.Errorf("TakenOver = %d, want %d", got, conns)
	}
}
