package replica_test

import (
	"fmt"
	"slices"
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
		Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
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

	g.CrashPrimary()
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
		Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
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
				sched, _, hosts := lanHosts(n)
				g, err := replica.NewGroup(hosts, replica.Config{
					ServerPorts: []uint16{80},
					Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
				})
				if err != nil {
					t.Fatal(err)
				}
				var failed []int
				g.OnFailover = func(pos int) { failed = append(failed, pos) }
				g.Start()
				alive := slices.Repeat([]bool{true}, n)
				for step, pos := range order {
					g.Crash(pos)
					alive[pos] = false
					if err := sched.RunFor(100 * time.Millisecond); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(failed, order[:step+1]) {
						t.Fatalf("OnFailover positions = %v, want %v", failed, order[:step+1])
					}
					if err := g.TakeoverErr(); err != nil {
						t.Errorf("after %v: takeover: %v", failed, err)
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
							t.Errorf("after %v: backup %d diverting = %v", failed, i, g.Backup(i).Active())
						}
						m := g.PrimaryBridge()
						if i > 0 {
							m = g.Backup(i).Matcher()
						}
						if (m == nil) != (i == n-1) {
							t.Fatalf("member %d: matcher = %v", i, m)
						}
						if m != nil && m.Degraded() != (i == last) {
							t.Errorf("after %v: member %d degraded = %v", failed, i, m.Degraded())
						}
					}
					if owners != 1 || !hosts[first].Owns(g.ServiceAddr()) {
						t.Errorf("after %v: %d live owners of the service address, first live member owns it: %v",
							failed, owners, hosts[first].Owns(g.ServiceAddr()))
					}
				}
			})
		}
	}
}

// deaf loses every frame at one station.
type deaf struct{ nic *ethernet.NIC }

func (deaf) Tx(*ethernet.NIC, ethernet.Frame) ethernet.TxVerdict { return ethernet.TxVerdict{} }
func (d deaf) Rx(dst *ethernet.NIC, _ ethernet.Frame) bool       { return dst == d.nic }

// TestSuspectedBackupStillTakesOver: a primary that stops hearing a healthy
// secondary degrades; when the primary then dies, the secondary's report is
// not discounted by the earlier suspicion, and it takes over.
func TestSuspectedBackupStillTakesOver(t *testing.T) {
	sched, seg, hosts := lanHosts(2)
	g, err := replica.NewGroup(hosts, replica.Config{
		ServerPorts: []uint16{80},
		Detect:      detect.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	g.OnFailover = func(pos int) { failed = append(failed, pos) }
	g.Start()
	// Deaf only once ARP has resolved, so its own heartbeats keep flowing.
	sched.After(30*time.Millisecond, "test.deafen", func() { seg.SetImpairer(deaf{hosts[0].Iface(0).NIC()}) })
	if err := sched.RunFor(130 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(failed, []int{1}) || !g.PrimaryBridge().Degraded() {
		t.Fatalf("deaf primary: failed = %v, degraded = %v", failed, g.PrimaryBridge().Degraded())
	}
	g.CrashPrimary()
	if err := sched.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(failed, []int{1, 0}) {
		t.Fatalf("failed = %v, want [1 0]", failed)
	}
	if g.SecondaryBridge().Active() || !hosts[1].Owns(g.ServiceAddr()) {
		t.Error("the suspected secondary did not take over")
	}
}
