package replica_test

import (
	"testing"
	"time"

	"tcpfailover/internal/core"
	"tcpfailover/internal/detect"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/replica"
	"tcpfailover/internal/sim"
)

// pairHosts builds two hosts on one LAN for group wiring tests.
func pairHosts(t *testing.T) (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	t.Helper()
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	p := netstack.NewHost(sched, "p", netstack.DefaultProfile())
	p.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 1}, ipv4.MustParseAddr("10.0.1.1"), prefix)
	s := netstack.NewHost(sched, "s", netstack.DefaultProfile())
	s.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 2}, ipv4.MustParseAddr("10.0.1.2"), prefix)
	return sched, p, s
}

func TestGroupWiring(t *testing.T) {
	_, p, s := pairHosts(t)
	g, err := replica.NewGroup(p, s, replica.Config{ServerPorts: []uint16{80}})
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
	if _, err := replica.NewGroup(p, s, replica.Config{}); err == nil {
		t.Fatal("group construction succeeded without a primary address")
	}
}

func TestOnFailoverCallbacks(t *testing.T) {
	sched, p, s := pairHosts(t)
	cfg := replica.Config{
		ServerPorts: []uint16{80},
		Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
	}
	g, err := replica.NewGroup(p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed []replica.Role
	g.OnFailover = func(r replica.Role) { failed = append(failed, r) }
	g.Start()
	g.Start() // idempotent
	if err := sched.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failover callbacks with healthy hosts: %v", failed)
	}

	g.CrashPrimary()
	if err := sched.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != replica.RolePrimary {
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
		Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
	}
	g, err := replica.NewGroup(p, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed []replica.Role
	g.OnFailover = func(r replica.Role) { failed = append(failed, r) }
	g.Start()
	if err := sched.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g.CrashSecondary()
	if err := sched.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != replica.RoleSecondary {
		t.Fatalf("failover callbacks = %v, want [secondary]", failed)
	}
	if !g.PrimaryBridge().Degraded() {
		t.Error("primary bridge not degraded")
	}
}

func TestOnEachPropagatesErrors(t *testing.T) {
	_, p, s := pairHosts(t)
	g, err := replica.NewGroup(p, s, replica.Config{})
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

func TestRoleString(t *testing.T) {
	if replica.RolePrimary.String() != "primary" || replica.RoleSecondary.String() != "secondary" {
		t.Error("role names wrong")
	}
}
