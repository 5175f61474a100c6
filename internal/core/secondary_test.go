package core

import (
	"errors"
	"testing"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Unit-level tests of the secondary bridge's translations, using a bare
// host fixture and hand-built segments.

type secFixture struct {
	sched *sim.Scheduler
	host  *netstack.Host
	b     *SecondaryBridge
	sel   *Selector
	aP    ipv4.Addr
	aS    ipv4.Addr
	aC    ipv4.Addr
	seg   *ethernet.Segment
}

func newSecFixture(t *testing.T) *secFixture { return newSecFixtureNext(t, 0) }

// newSecFixtureNext builds the bridge with a matcher behind it when next —
// the address of a further backup down the chain — is set.
func newSecFixtureNext(t *testing.T, next ipv4.Addr) *secFixture {
	t.Helper()
	f := &secFixture{
		sched: sim.New(1),
		aP:    ipv4.MustParseAddr("10.0.1.1"),
		aS:    ipv4.MustParseAddr("10.0.1.2"),
		aC:    ipv4.MustParseAddr("10.0.2.1"),
	}
	f.seg = ethernet.NewSegment(f.sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	f.host = netstack.NewHost(f.sched, "s", netstack.DefaultProfile())
	f.host.AttachIface(f.seg, ethernet.MAC{2, 0, 0, 0, 0, 2}, f.aS, prefix)
	f.sel = NewSelector()
	f.sel.EnableServerPort(80)
	if next.IsZero() {
		f.b = NewSecondaryBridge(f.host, 0, f.aP, f.aS, f.sel)
	} else {
		f.b = NewInteriorBridge(f.host, 0, f.aP, f.aS, next, f.sel, 0)
	}
	return f
}

// callInbound invokes the installed inbound hook the way netstack would.
func (f *secFixture) callInbound(t *testing.T, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
	t.Helper()
	// The hook is installed on the host; reach it through a fake delivery.
	// netstack exposes no direct accessor, so rebuild the same call the
	// host makes by re-installing a capturing wrapper is overkill: the
	// bridge's handler is reachable via its unexported method.
	return f.b.Inbound(0, hdr, payload)
}

func TestSecondaryInboundTranslation(t *testing.T) {
	f := newSecFixture(t)
	seg := &tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: 100, Flags: tcp.FlagACK, Window: 65535}
	raw := tcp.Marshal(f.aC, f.aP, seg)
	hdr := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}

	verdict, nh, np := f.callInbound(t, hdr, raw)
	if verdict != netstack.VerdictDeliver {
		t.Fatalf("verdict = %v, want Deliver", verdict)
	}
	if nh.Dst != f.aS {
		t.Errorf("dst = %v, want %v (aP -> aS translation)", nh.Dst, f.aS)
	}
	if tcp.ComputeChecksum(f.aC, f.aS, np) != 0 {
		t.Error("checksum not patched for the new pseudo-header")
	}
	if f.b.Stats().SnoopedIn != 1 {
		t.Errorf("SnoopedIn = %d", f.b.Stats().SnoopedIn)
	}
}

func TestSecondaryInboundIgnoresOtherTraffic(t *testing.T) {
	f := newSecFixture(t)

	// Not addressed to aP: untouched.
	seg := &tcp.Segment{SrcPort: 1, DstPort: 80, Flags: tcp.FlagACK}
	raw := tcp.Marshal(f.aC, f.aS, seg)
	verdict, _, _ := f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aS}, raw)
	if verdict != netstack.VerdictPass {
		t.Errorf("own traffic verdict = %v, want Pass", verdict)
	}

	// Addressed to aP but on a non-failover port: untouched.
	seg = &tcp.Segment{SrcPort: 1, DstPort: 9999, Flags: tcp.FlagACK}
	raw = tcp.Marshal(f.aC, f.aP, seg)
	verdict, nh, _ := f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}, raw)
	if verdict != netstack.VerdictPass || nh.Dst != f.aP {
		t.Errorf("non-failover traffic translated (verdict=%v dst=%v)", verdict, nh.Dst)
	}
}

func TestSecondaryInboundClampsSynMSS(t *testing.T) {
	f := newSecFixture(t)
	seg := &tcp.Segment{
		SrcPort: 49152, DstPort: 80, Seq: 1, Flags: tcp.FlagSYN,
		Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)},
	}
	raw := tcp.Marshal(f.aC, f.aP, seg)
	_, _, np := f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}, raw)
	got, err := tcp.Unmarshal(f.aC, f.aS, np, true)
	if err != nil {
		t.Fatal(err)
	}
	if mss, _ := got.MSS(); mss != 1452 {
		t.Errorf("MSS = %d, want 1452 (clamped by the diversion overhead)", mss)
	}
}

func TestSecondaryOutboundDiversion(t *testing.T) {
	f := newSecFixture(t)
	var sentTo ipv4.Addr
	var sentRaw []byte
	f.host.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
		if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP {
			sentTo = hdr.Dst
			sentRaw = append([]byte(nil), payload...)
		}
	})
	seg := &tcp.Segment{SrcPort: 80, DstPort: 49152, Seq: 1000, Flags: tcp.FlagACK | tcp.FlagPSH,
		Window: 65535, Payload: []byte("reply")}
	raw := tcp.Marshal(f.aS, f.aC, seg)
	if consumed := f.b.Outbound(f.aS, f.aC, raw); !consumed {
		t.Fatal("failover segment not consumed by the diversion")
	}
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sentTo != f.aP {
		t.Fatalf("diverted to %v, want %v", sentTo, f.aP)
	}
	if tcp.ComputeChecksum(f.aS, f.aP, sentRaw) != 0 {
		t.Error("diverted segment checksum invalid under the new pseudo-header")
	}
	stripped, orig, ok := tcp.StripOrigDstOptionInPlace(sentRaw)
	if !ok || orig != f.aC {
		t.Fatalf("original destination = %v (ok=%v), want %v", orig, ok, f.aC)
	}
	if string(tcp.RawPayload(stripped)) != "reply" {
		t.Error("payload damaged by the diversion")
	}
}

func TestSecondaryOutboundPassesNonFailover(t *testing.T) {
	f := newSecFixture(t)
	seg := &tcp.Segment{SrcPort: 9999, DstPort: 49152, Flags: tcp.FlagACK}
	raw := tcp.Marshal(f.aS, f.aC, seg)
	if f.b.Outbound(f.aS, f.aC, raw) {
		t.Error("non-failover segment consumed")
	}
}

func TestSecondaryRetargetAndTakeoverGating(t *testing.T) {
	f := newSecFixture(t)
	other := ipv4.MustParseAddr("10.0.1.9")
	f.b.SetUpstream(other)
	var sentTo ipv4.Addr
	f.host.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
		if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP {
			sentTo = hdr.Dst
		}
	})
	seg := &tcp.Segment{SrcPort: 80, DstPort: 49152, Flags: tcp.FlagACK}
	raw := tcp.Marshal(f.aS, f.aC, seg)
	f.b.Outbound(f.aS, f.aC, raw)
	if err := f.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sentTo != other {
		t.Errorf("diverted to %v after retarget, want %v", sentTo, other)
	}

	// After takeover every translation is disabled.
	if err := f.b.Takeover(); err != nil {
		t.Fatal(err)
	}
	if f.b.Active() {
		t.Fatal("bridge still active")
	}
	if f.host.Iface(0).NIC().Promiscuous() {
		t.Error("promiscuous mode still on after takeover (step 2)")
	}
	if !f.host.Owns(f.aP) {
		t.Error("service address not taken over (step 5)")
	}
	raw = tcp.Marshal(f.aC, f.aP, &tcp.Segment{SrcPort: 49152, DstPort: 80, Flags: tcp.FlagACK})
	verdict, nh, _ := f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}, raw)
	if verdict != netstack.VerdictPass || nh.Dst != f.aP {
		t.Error("inbound translation still applied after takeover (step 3)")
	}
	raw = tcp.Marshal(f.aP, f.aC, &tcp.Segment{SrcPort: 80, DstPort: 49152, Flags: tcp.FlagACK})
	if f.b.Outbound(f.aP, f.aC, raw) {
		t.Error("outbound diversion still applied after takeover (step 4)")
	}
	// Takeover is idempotent.
	if err := f.b.Takeover(); err != nil {
		t.Fatal(err)
	}
}

// TestTakeoverContinuesPastRebindConflict: one of three snooped flows cannot
// be re-keyed because a connection already sits on its (aP, port, client)
// tuple. The takeover must not stop there — the other two flows are
// re-keyed, the gratuitous ARP still goes out, the failure is counted, and
// the error is returned rather than swallowed.
func TestTakeoverContinuesPastRebindConflict(t *testing.T) {
	f := newSecFixture(t)
	reg := obs.NewRegistry()
	f.b.AttachObs(reg, "s")
	stack := f.host.TCP()
	if _, err := stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	announced := false
	f.seg.Attach(ethernet.MAC{2, 0, 0, 0, 0, 9}).SetHandler(func(fr ethernet.Frame) {
		if p, err := arp.Unmarshal(fr.Payload); fr.Type == ethernet.TypeARP && err == nil {
			announced = announced || (p.SenderIP == f.aP && p.TargetIP == f.aP)
		}
	})

	clients := []ipv4.Addr{
		ipv4.MustParseAddr("10.0.2.1"), ipv4.MustParseAddr("10.0.2.2"), ipv4.MustParseAddr("10.0.2.3"),
	}
	syn := func(src, dst ipv4.Addr) []byte {
		return tcp.Marshal(src, dst, &tcp.Segment{
			SrcPort: 49152, DstPort: 80, Seq: 1, Flags: tcp.FlagSYN, Window: 65535,
		})
	}
	for _, aC := range clients {
		// The snooped client SYN, translated aP -> aS, opens the connection
		// under the secondary's own address.
		v, nh, np := f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: aC, Dst: f.aP}, syn(aC, f.aP))
		if v != netstack.VerdictDeliver {
			t.Fatalf("client %v: snooped SYN verdict %v", aC, v)
		}
		stack.Input(nh.Src, nh.Dst, np)
	}
	// The conflict: a connection already bound to (aP, 80, clients[1]).
	stack.Input(clients[1], f.aP, syn(clients[1], f.aP))

	err := f.b.Takeover()
	if !errors.Is(err, tcp.ErrPortInUse) {
		t.Fatalf("Takeover error = %v, want the rebind conflict", err)
	}
	// Long enough for the announce to cross the wire, short enough that the
	// half-open connections have not timed out.
	if err := f.sched.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, aC := range clients {
		tuple := tcp.Tuple{LocalAddr: f.aS, LocalPort: 80, RemoteAddr: aC, RemotePort: 49152}
		_, underS := stack.Lookup(tuple)
		if wantS := i == 1; underS != wantS {
			t.Errorf("client %v: still keyed under aS = %v, want %v", aC, underS, wantS)
		}
		tuple.LocalAddr = f.aP
		if _, ok := stack.Lookup(tuple); !ok {
			t.Errorf("client %v: no connection under aP after takeover", aC)
		}
	}
	if got := f.b.Stats().TakenOver; got != 2 {
		t.Errorf("TakenOver = %d, want 2", got)
	}
	if !announced {
		t.Error("no gratuitous ARP after a takeover with a failed re-key")
	}
	if v, _ := reg.Lookup(`bridge_takeover_errors_total{host="s"}`); v != 1 {
		t.Errorf("bridge_takeover_errors_total = %d, want 1", v)
	}
}

// TestTakeoverRekeysIdleConnection: a connection that carries no traffic
// while a flood of spoofed SYNs is snooped is still re-keyed at takeover,
// or its client is reset after failover. The connections to re-key are the
// TCP layer's own, so nothing the flood does on the snoop path can hide one.
func TestTakeoverRekeysIdleConnection(t *testing.T) {
	f := newSecFixture(t)
	stack := f.host.TCP()
	if _, err := stack.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	snoop := func(src ipv4.Addr, port uint16) (netstack.InVerdict, ipv4.Header, []byte) {
		raw := tcp.Marshal(src, f.aP, &tcp.Segment{SrcPort: port, DstPort: 80, Seq: 1, Flags: tcp.FlagSYN, Window: 65535})
		return f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: f.aP}, raw)
	}
	// The client's SYN, translated aP -> aS, opens the connection under the
	// secondary's own address; then the flood.
	v, nh, np := snoop(f.aC, 49152)
	if v != netstack.VerdictDeliver {
		t.Fatalf("snooped SYN verdict %v", v)
	}
	stack.Input(nh.Src, nh.Dst, np)
	for i := range 8 {
		snoop(ipv4.AddrFrom4(10, 9, 0, byte(i)), uint16(20000+i))
	}
	if err := f.b.Takeover(); err != nil {
		t.Fatal(err)
	}
	tuple := tcp.Tuple{LocalAddr: f.aP, LocalPort: 80, RemoteAddr: f.aC, RemotePort: 49152}
	if _, ok := stack.Lookup(tuple); !ok {
		t.Error("idle connection not re-keyed to aP")
	}
	if got := f.b.Stats().TakenOver; got != 1 {
		t.Errorf("TakenOver = %d, want 1", got)
	}
}
