package replica_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"tcpfailover/internal/core"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/replica"
	"tcpfailover/internal/sim"
)

// lanHosts builds n hosts, 10.0.1.1 onward, on one LAN.
func lanHosts(n int) (*sim.Scheduler, *ethernet.Segment, []*netstack.Host) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	hosts := make([]*netstack.Host, n)
	for i := range hosts {
		hosts[i] = netstack.NewHost(sched, fmt.Sprintf("h%d", i), netstack.DefaultProfile())
		hosts[i].AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, byte(i + 1)}, ipv4.AddrFrom4(10, 0, 1, byte(i+1)), prefix)
	}
	return sched, seg, hosts
}

// pairHosts builds two hosts on one LAN for group wiring tests.
func pairHosts(t *testing.T) (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	t.Helper()
	sched, _, hosts := lanHosts(2)
	return sched, hosts[0], hosts[1]
}

// startGroup builds and starts an n-member group with an attached registry,
// recording every OnFailover position.
func startGroup(t *testing.T, n int) (*sim.Scheduler, *ethernet.Segment, []*netstack.Host, *replica.Group, *obs.Registry, *[]int) {
	t.Helper()
	sched, seg, hosts := lanHosts(n)
	g, err := replica.NewGroup(hosts, replica.Config{
		ServerPorts: []uint16{80},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.AttachObs(reg)
	failed := new([]int)
	g.OnFailover = func(pos int) { *failed = append(*failed, pos) }
	g.Start()
	return sched, seg, hosts, g, reg, failed
}

// fences reads replica_fences_total; the series is attached at the first.
func fences(reg *obs.Registry) int64 {
	v, _ := reg.Lookup("replica_fences_total")
	return v
}

func TestGroupWiring(t *testing.T) {
	_, p, s := pairHosts(t)
	g, err := replica.NewGroup([]*netstack.Host{p, s}, replica.Config{ServerPorts: []uint16{80}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Primary() != p || g.Secondary() != s {
		t.Error("host accessors wrong")
	}
	if g.ServiceAddr() != ipv4.MustParseAddr("10.0.1.1") {
		t.Errorf("service addr = %v", g.ServiceAddr())
	}
	if !s.Iface(0).NIC().Promiscuous() {
		t.Error("secondary NIC not promiscuous after group construction")
	}
	if g.PrimaryBridge() == nil || g.SecondaryBridge() == nil {
		t.Fatal("bridges not installed")
	}
	key := core.MakeTupleKey(ipv4.MustParseAddr("10.0.2.1"), 49152, 80)
	if !g.Selector().Match(key) {
		t.Error("server port not enabled in the selector")
	}
}

func TestGroupRequiresAddresses(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	p := netstack.NewHost(sched, "p", netstack.DefaultProfile())
	p.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 1}, 0, prefix) // no address
	s := netstack.NewHost(sched, "s", netstack.DefaultProfile())
	s.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 2}, ipv4.MustParseAddr("10.0.1.2"), prefix)
	if _, err := replica.NewGroup([]*netstack.Host{p, s}, replica.Config{}); err == nil {
		t.Fatal("group construction succeeded without a primary address")
	}
}

func TestOnFailoverCallbacks(t *testing.T) {
	sched, p, s := pairHosts(t)
	cfg := replica.Config{
		ServerPorts: []uint16{80},
	}
	g, err := replica.NewGroup([]*netstack.Host{p, s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	g.OnFailover = func(pos int) { failed = append(failed, pos) }
	g.Start()
	g.Start() // idempotent
	if err := sched.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failover callbacks with healthy hosts: %v", failed)
	}

	g.Crash(0)
	if err := sched.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 0 {
		t.Fatalf("failover callbacks = %v, want [primary]", failed)
	}
	if g.SecondaryBridge().Active() {
		t.Error("secondary bridge still active after takeover")
	}
	if !s.Owns(ipv4.MustParseAddr("10.0.1.1")) {
		t.Error("secondary did not take over the primary's address")
	}
	if err := g.TakeoverErr(); err != nil {
		t.Errorf("clean takeover reported %v", err)
	}
	g.Stop()
}

func TestSecondaryFailureDegradesPrimary(t *testing.T) {
	sched, p, s := pairHosts(t)
	cfg := replica.Config{
		ServerPorts: []uint16{80},
	}
	g, err := replica.NewGroup([]*netstack.Host{p, s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	g.OnFailover = func(pos int) { failed = append(failed, pos) }
	g.Start()
	if err := sched.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g.Crash(1)
	if err := sched.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failover callbacks = %v, want [secondary]", failed)
	}
	if !g.PrimaryBridge().Degraded() {
		t.Error("primary bridge not degraded")
	}
}

func TestOnEachPropagatesErrors(t *testing.T) {
	_, p, s := pairHosts(t)
	g, err := replica.NewGroup([]*netstack.Host{p, s}, replica.Config{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := g.OnEach(func(h *netstack.Host) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("OnEach ran %d times, want 2", calls)
	}
	wantErr := g.OnEach(func(h *netstack.Host) error {
		if h == s {
			return ipv4.ErrTruncated // any sentinel
		}
		return nil
	})
	if wantErr == nil {
		t.Error("OnEach swallowed the error")
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

// TestGroupFailureRouting walks every order in which all members but one
// can crash, for two and three hosts, and holds the group to the routing
// rule after each detection: one live owner of the service address, every
// live member with a live member behind it still matching and the last live
// one degraded, backups diverting exactly while a live member is ahead of
// them.
func TestGroupFailureRouting(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, order := range permutations(n) {
			order = order[:n-1]
			t.Run(fmt.Sprint(n, "hosts", order), func(t *testing.T) {
				sched, _, hosts, g, _, failed := startGroup(t, n)
				alive := slices.Repeat([]bool{true}, n)
				for step, pos := range order {
					g.Crash(pos)
					alive[pos] = false
					if err := sched.RunFor(100 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(*failed, order[:step+1]) {
						t.Fatalf("OnFailover positions = %v, want %v", *failed, order[:step+1])
					}
					if err := g.TakeoverErr(); err != nil {
						t.Errorf("after %v: takeover: %v", *failed, err)
					}
					owners, first, last := 0, slices.Index(alive, true), n-1
					for !alive[last] {
						last--
					}
					for i, h := range hosts {
						if !alive[i] {
							continue
						}
						if h.Owns(g.ServiceAddr()) {
							owners++
						}
						if i > 0 && g.Backup(i).Active() != (i != first) {
							t.Errorf("after %v: backup %d diverting = %v", *failed, i, g.Backup(i).Active())
						}
						m := g.PrimaryBridge()
						if i > 0 {
							m = g.Backup(i).Matcher()
						}
						if (m == nil) != (i == n-1) {
							t.Fatalf("member %d: matcher = %v", i, m)
						}
						if m != nil && m.Degraded() != (i == last) {
							t.Errorf("after %v: member %d degraded = %v", *failed, i, m.Degraded())
						}
					}
					if owners != 1 || !hosts[first].Owns(g.ServiceAddr()) {
						t.Errorf("after %v: %d live owners of the service address, first live member owns it: %v",
							*failed, owners, hosts[first].Owns(g.ServiceAddr()))
					}
				}
			})
		}
	}
}

// deaf loses every frame at one station.
type deaf struct{ nic *ethernet.NIC }

func (deaf) Tx(*ethernet.NIC, ethernet.Frame) bool         { return false }
func (d deaf) Rx(dst *ethernet.NIC, _ ethernet.Frame) bool { return dst == d.nic }

// TestSuspectedBackupStillTakesOver: a primary that stops hearing a healthy
// secondary degrades; when the primary then dies, the secondary, whose own
// view never lost the primary, takes over.
func TestSuspectedBackupStillTakesOver(t *testing.T) {
	sched, seg, hosts, g, _, failed := startGroup(t, 2)
	// Deaf only once ARP has resolved, so its own heartbeats keep flowing.
	sched.After(30*time.Millisecond, "test.deafen", func() { seg.SetImpairer(deaf{hosts[0].Iface(0).NIC()}) })
	if err := sched.RunFor(130 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*failed, []int{1}) || !g.PrimaryBridge().Degraded() {
		t.Fatalf("deaf primary: failed = %v, degraded = %v", *failed, g.PrimaryBridge().Degraded())
	}
	g.Crash(0)
	if err := sched.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*failed, []int{1, 0}) {
		t.Fatalf("failed = %v, want [1 0]", *failed)
	}
	if g.SecondaryBridge().Active() || !hosts[1].Owns(g.ServiceAddr()) {
		t.Error("the suspected secondary did not take over")
	}
}

// TestEarlierClaimIgnored: a backup that owns the service address (as after
// a takeover) goes on hearing the primary's claim-bearing heartbeats — the
// primary is deaf, so it never hears the backup's — and ignores them: only
// a claim from behind fences.
func TestEarlierClaimIgnored(t *testing.T) {
	sched, seg, hosts, g, reg, _ := startGroup(t, 2)
	sched.After(30*time.Millisecond, "test.own", func() {
		seg.SetImpairer(deaf{hosts[0].Iface(0).NIC()})
		hosts[1].AddAddress(0, g.ServiceAddr())
	})
	if err := sched.RunFor(130 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !hosts[1].Alive() || !hosts[0].Alive() || fences(reg) != 0 {
		t.Errorf("primary alive %v, backup alive %v, fences %d; want both alive, no fence",
			hosts[0].Alive(), hosts[1].Alive(), fences(reg))
	}
}

// TestLaterClaimFencesOnlyTheOwner sends one claim-bearing heartbeat from
// the last member of a chain to each member ahead of it. The middle member
// does not own the service address and ignores it; the primary owns it and
// fail-stops. Its detectors go quiet with it, and the survivors see a
// crash: the middle member takes over, the last one diverts to it.
func TestLaterClaimFencesOnlyTheOwner(t *testing.T) {
	sched, _, hosts, g, reg, failed := startGroup(t, 3)
	claim := func(to int) {
		payload := [8]byte{0x80} // the claim bit, sequence number 0
		if err := hosts[2].SendIP(hosts[2].Iface(0).Addr(), hosts[to].Iface(0).Addr(), ipv4.ProtoHeartbeat, payload[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.RunFor(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	claim(1)
	if err := sched.RunFor(30 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !hosts[1].Alive() || fences(reg) != 0 {
		t.Fatalf("a claim fenced a member that does not own the service address (alive %v, fences %d)",
			hosts[1].Alive(), fences(reg))
	}
	claim(0)
	if err := sched.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if hosts[0].Alive() || fences(reg) != 1 {
		t.Fatalf("the primary heard a later claim and stayed up (alive %v, fences %d)", hosts[0].Alive(), fences(reg))
	}
	sent := 0
	hosts[0].AddPacketTap(func(dir string, _ ipv4.Header, _ []byte) {
		if dir == "tx" {
			sent++
		}
	})
	if err := sched.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sent != 0 || !slices.Equal(*failed, []int{0}) {
		t.Errorf("after the fence: the primary sent %d datagrams, OnFailover positions %v; want 0 and [0]", sent, *failed)
	}
	if !hosts[1].Owns(g.ServiceAddr()) || g.Backup(1).Active() || !g.Backup(2).Active() || g.TakeoverErr() != nil {
		t.Errorf("survivors: middle owns %v, middle diverting %v, last diverting %v, takeover %v",
			hosts[1].Owns(g.ServiceAddr()), g.Backup(1).Active(), g.Backup(2).Active(), g.TakeoverErr())
	}
	if hosts[2].Owns(g.ServiceAddr()) || !hosts[1].Alive() || !hosts[2].Alive() || fences(reg) != 1 {
		t.Errorf("one fence only: last owns %v, middle alive %v, last alive %v, fences %d",
			hosts[2].Owns(g.ServiceAddr()), hosts[1].Alive(), hosts[2].Alive(), fences(reg))
	}
}
