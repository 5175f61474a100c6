package netstack_test

import (
	"testing"
	"time"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// routedNet is a two-LAN topology with a router, mirroring the scenario
// shape but built by hand for netstack-level tests.
type routedNet struct {
	sched  *sim.Scheduler
	lan1   *ethernet.Segment
	lan2   *ethernet.Segment
	h1     *netstack.Host // on lan1
	h2     *netstack.Host // on lan2
	router *netstack.Host
	a1, a2 ipv4.Addr
}

func newRoutedNet(t *testing.T) *routedNet {
	t.Helper()
	sched := sim.New(1)
	n := &routedNet{
		sched: sched,
		lan1:  ethernet.NewSegment(sched, ethernet.Config{}),
		lan2:  ethernet.NewSegment(sched, ethernet.Config{}),
		a1:    ipv4.MustParseAddr("10.0.1.1"),
		a2:    ipv4.MustParseAddr("10.0.2.1"),
	}
	p1 := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	p2 := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.2.0"), 24)
	r1 := ipv4.MustParseAddr("10.0.1.254")
	r2 := ipv4.MustParseAddr("10.0.2.254")

	n.router = netstack.NewHost(sched, "r", netstack.DefaultProfile())
	n.router.SetForwarding(true)
	n.router.AttachIface(n.lan1, ethernet.MAC{2, 0, 0, 0, 0, 0xf1}, r1, p1)
	n.router.AttachIface(n.lan2, ethernet.MAC{2, 0, 0, 0, 0, 0xf2}, r2, p2)

	n.h1 = netstack.NewHost(sched, "h1", netstack.DefaultProfile())
	n.h1.AttachIface(n.lan1, ethernet.MAC{2, 0, 0, 0, 0, 1}, n.a1, p1)
	n.h1.AddRoute(ipv4.PrefixFrom(0, 0), r1, 0)

	n.h2 = netstack.NewHost(sched, "h2", netstack.DefaultProfile())
	n.h2.AttachIface(n.lan2, ethernet.MAC{2, 0, 0, 0, 0, 2}, n.a2, p2)
	n.h2.AddRoute(ipv4.PrefixFrom(0, 0), r2, 0)
	return n
}

const testProto = 200

func TestForwardingAcrossRouter(t *testing.T) {
	n := newRoutedNet(t)
	var got []byte
	var gotHdr ipv4.Header
	n.h2.RegisterProtocol(testProto, func(hdr ipv4.Header, payload []byte) {
		gotHdr = hdr
		got = append([]byte(nil), payload...)
	})
	if err := n.h1.SendIP(n.a1, n.a2, testProto, []byte("across the router")); err != nil {
		t.Fatal(err)
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "across the router" {
		t.Fatalf("h2 received %q", got)
	}
	if gotHdr.TTL != ipv4.DefaultTTL-1 {
		t.Errorf("TTL = %d, want decremented once", gotHdr.TTL)
	}
	if gotHdr.Src != n.a1 || gotHdr.Dst != n.a2 {
		t.Errorf("addresses: %v -> %v", gotHdr.Src, gotHdr.Dst)
	}
}

func TestTTLExpiryDropsDatagram(t *testing.T) {
	n := newRoutedNet(t)
	// Second router in a loop is overkill; instead point h1's default route
	// back at itself via the router and give the datagram TTL 1 by sending
	// through two hops: craft with a direct low-TTL injection.
	received := false
	n.h2.RegisterProtocol(testProto, func(ipv4.Header, []byte) { received = true })

	// Host-originated datagrams start at TTL 64; verify the router drops
	// TTL<=1 by delivering one directly onto lan1 addressed through it.
	raw := ipv4.Marshal(ipv4.Header{TTL: 1, Protocol: testProto, Src: n.a1, Dst: n.a2}, []byte("x"))
	nic := n.h1.Iface(0).NIC()
	if err := nic.Send(ethernet.Frame{
		Dst:     ethernet.MAC{2, 0, 0, 0, 0, 0xf1},
		Type:    ethernet.TypeIPv4,
		Payload: raw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if received {
		t.Error("TTL-1 datagram was forwarded")
	}
}

func TestNonForwardingHostDropsTransit(t *testing.T) {
	n := newRoutedNet(t)
	// h1 receives a datagram addressed to h2 (promiscuous-style direct
	// injection); without forwarding enabled it must not relay it.
	received := false
	n.h2.RegisterProtocol(testProto, func(ipv4.Header, []byte) { received = true })
	raw := ipv4.Marshal(ipv4.Header{TTL: 64, Protocol: testProto, Src: n.a1, Dst: n.a2}, []byte("x"))
	// Deliver directly to h1's NIC MAC so h1's IP layer sees a non-local dst.
	r := n.router.Iface(0).NIC()
	if err := r.Send(ethernet.Frame{
		Dst:     ethernet.MAC{2, 0, 0, 0, 0, 1},
		Type:    ethernet.TypeIPv4,
		Payload: raw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if received {
		t.Error("non-forwarding host relayed a transit datagram")
	}
}

func TestInboundHookRewritesAndDelivers(t *testing.T) {
	// The secondary-bridge pattern: an interface snooping aP and an inbound
	// hook that rewrites that foreign destination to a local one. The
	// snooper overhears a datagram to another foreign address as well; it
	// must reach neither the hook nor IP input — unless a packet tap watches
	// the host, which then runs everything it receives.
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	aP := ipv4.MustParseAddr("10.0.1.1")
	aS := ipv4.MustParseAddr("10.0.1.2")
	src := ipv4.MustParseAddr("10.0.1.3")
	other := ipv4.MustParseAddr("10.0.1.9")
	run := func(tap bool) (hooked []ipv4.Addr, delivered []byte, events int) {
		sched := sim.New(1)
		lan := ethernet.NewSegment(sched, ethernet.Config{})
		sender := netstack.NewHost(sched, "sender", netstack.DefaultProfile())
		sender.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 1}, aP, prefix)
		snooper := netstack.NewHost(sched, "snooper", netstack.DefaultProfile())
		snooper.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 2}, aS, prefix)
		snooper.Iface(0).Snoop(aP)
		if tap {
			snooper.AddPacketTap(func(string, ipv4.Header, []byte) {})
		}
		snooper.SetInboundHook(func(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
			hooked = append(hooked, hdr.Dst)
			if hdr.Dst == aP {
				hdr.Dst = aS
				delivered = append([]byte(nil), payload...)
				return netstack.VerdictDrop, hdr, payload // drop after recording
			}
			return netstack.VerdictPass, hdr, payload
		})
		// Unicast frames to stations other than the snooper.
		sender.Iface(0).ARP().Seed(aP, ethernet.MAC{2, 0, 0, 0, 0, 1})
		sender.Iface(0).ARP().Seed(other, ethernet.MAC{2, 0, 0, 0, 0, 9})
		for _, dst := range []ipv4.Addr{aP, other} {
			seg := tcp.Marshal(src, dst, &tcp.Segment{SrcPort: 1, DstPort: 2, Flags: tcp.FlagACK})
			if err := sender.SendIP(src, dst, ipv4.ProtoTCP, seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		return hooked, delivered, sched.Executed()
	}

	hooked, delivered, events := run(false)
	if len(delivered) == 0 {
		t.Fatal("inbound hook never saw the snooped datagram")
	}
	if len(hooked) != 1 {
		t.Errorf("inbound hook saw datagrams to %v, want only the snooped %v", hooked, aP)
	}
	hooked, _, tapped := run(true)
	if len(hooked) != 2 {
		t.Errorf("with a packet tap the inbound hook saw datagrams to %v, want %v and %v", hooked, aP, other)
	}
	if tapped-events != 1 {
		t.Errorf("a packet tap added %d events, want 1: the overheard datagram's IP input", tapped-events)
	}
}

func TestOutboundHookConsumesSegments(t *testing.T) {
	n := newRoutedNet(t)
	consumed := 0
	n.h1.SetOutboundHook(func(src, dst ipv4.Addr, segment []byte) bool {
		consumed++
		return true // swallow everything
	})
	if _, err := n.h1.TCP().Dial(n.a2, 80); err != nil {
		t.Fatal(err)
	}
	if err := n.sched.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if consumed == 0 {
		t.Error("outbound hook never saw the SYN")
	}
	if n.lan1.Stats().Frames != 0 {
		t.Errorf("%d frames escaped despite the hook consuming all output", n.lan1.Stats().Frames)
	}
}

func TestCrashStopsAllIO(t *testing.T) {
	n := newRoutedNet(t)
	got := 0
	n.h2.RegisterProtocol(testProto, func(ipv4.Header, []byte) { got++ })
	n.h1.Crash()
	if err := n.h1.SendIP(n.a1, n.a2, testProto, []byte("x")); err == nil {
		t.Error("SendIP from crashed host succeeded")
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("crashed host emitted traffic")
	}
	if n.h1.Alive() {
		t.Error("Alive() after Crash()")
	}
}

func TestHostChargesSerializeCPU(t *testing.T) {
	// Two datagrams sent back-to-back leave at least StackEgress apart.
	n := newRoutedNet(t)
	var times []time.Duration
	n.h2.RegisterProtocol(testProto, func(ipv4.Header, []byte) {
		times = append(times, n.sched.Now())
	})
	_ = n.h1.SendIP(n.a1, n.a2, testProto, make([]byte, 1000))
	_ = n.h1.SendIP(n.a1, n.a2, testProto, make([]byte, 1000))
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("received %d datagrams", len(times))
	}
	minGap := n.h1.Profile().StackEgress
	if gap := times[1] - times[0]; gap < minGap {
		t.Errorf("datagrams %v apart, want >= %v (serial egress)", gap, minGap)
	}
}
