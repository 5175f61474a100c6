package fault

import (
	"testing"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/sim"
)

// testNet is a two-station segment with a fault set bound to it.
type testNet struct {
	sched *sim.Scheduler
	seg   *ethernet.Segment
	a, b  *ethernet.NIC
	set   *Set
	gotB  int
	lastB []byte
}

const testLink LinkID = "test-link"

func newTestNet(t *testing.T, seed int64) *testNet {
	t.Helper()
	n := &testNet{sched: sim.New(seed)}
	n.seg = ethernet.NewSegment(n.sched, ethernet.Config{})
	n.a = n.seg.Attach(ethernet.MAC{2, 0, 0, 0, 0, 0xa})
	n.b = n.seg.Attach(ethernet.MAC{2, 0, 0, 0, 0, 0xb})
	n.b.SetHandler(func(f ethernet.Frame) {
		n.gotB++
		n.lastB = append([]byte(nil), f.Payload...)
		f.Buf.Release()
	})
	n.set = NewSet(seed, Topology{
		Links: map[LinkID]*ethernet.Segment{testLink: n.seg},
		Stations: map[LinkID]map[Role]*ethernet.NIC{
			testLink: {RoleClient: n.a, RoleRouter: n.b},
		},
	})
	return n
}

func (n *testNet) send(t *testing.T, payload []byte) {
	t.Helper()
	if err := n.a.Send(ethernet.Frame{Dst: n.b.MAC(), Type: ethernet.TypeIPv4, Payload: payload}); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestInjectorDropAndStats(t *testing.T) {
	n := newTestNet(t, 1)
	if err := n.set.Impair(Impairment{Link: testLink, Models: []Spec{Bernoulli(1.0)}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		n.send(t, []byte{1, 2, 3})
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n.gotB != 0 {
		t.Errorf("receiver got %d frames through a 100%% loss model", n.gotB)
	}
	st := n.set.Stats()
	if st.Dropped != 10 || st.Examined != 10 {
		t.Errorf("stats = %+v, want 10 examined, 10 dropped", st)
	}
	if lost := n.seg.Stats().Lost; lost != 10 {
		t.Errorf("segment counted %d lost, want 10", lost)
	}
}

func TestInjectorDirectionalRxDrop(t *testing.T) {
	// Loss bound To the b station must not affect other receivers.
	n := newTestNet(t, 1)
	c := n.seg.Attach(ethernet.MAC{2, 0, 0, 0, 0, 0xc})
	c.SetPromiscuous(true)
	gotC := 0
	c.SetHandler(func(f ethernet.Frame) { gotC++; f.Buf.Release() })
	err := n.set.Impair(Impairment{Link: testLink, From: RoleClient, To: RoleRouter,
		Models: []Spec{Bernoulli(1.0)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.send(t, []byte{9})
	}
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n.gotB != 0 {
		t.Errorf("bound receiver got %d frames", n.gotB)
	}
	if gotC != 5 {
		t.Errorf("promiscuous bystander got %d of 5 frames", gotC)
	}
}

func TestInjectorCorrupt(t *testing.T) {
	n := newTestNet(t, 2)
	if err := n.set.Impair(Impairment{Link: testLink, Models: []Spec{Corrupt(1.0)}}); err != nil {
		t.Fatal(err)
	}
	orig := []byte{0, 0, 0, 0}
	n.send(t, append([]byte(nil), orig...))
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n.gotB != 1 {
		t.Fatalf("receiver got %d frames, want 1", n.gotB)
	}
	diff := 0
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			if (n.lastB[i]^orig[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("delivered payload differs in %d bits, want exactly 1", diff)
	}
	if st := n.set.Stats(); st.Corrupted != 1 {
		t.Errorf("stats = %+v, want 1 corrupted", st)
	}
}

func TestInjectorPartition(t *testing.T) {
	n := newTestNet(t, 1)
	if err := n.set.Impair(Impairment{Link: testLink,
		Models: []Spec{PartitionGate("split", false)}}); err != nil {
		t.Fatal(err)
	}
	n.send(t, []byte{1})
	if err := n.set.Partition("split"); err != nil {
		t.Fatal(err)
	}
	n.send(t, []byte{2})
	if err := n.set.Heal("split"); err != nil {
		t.Fatal(err)
	}
	n.send(t, []byte{3})
	if err := n.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if n.gotB != 2 {
		t.Errorf("receiver got %d frames, want 2 (one partitioned away)", n.gotB)
	}
	if st := n.set.Stats(); st.Dropped != 1 || st.Examined != 3 {
		t.Errorf("stats = %+v, want one partition drop out of three frames", st)
	}
	if err := n.set.Partition("nonesuch"); err == nil {
		t.Error("engaging an unknown partition succeeded")
	}
}

// TestInjectorDeterminism pins the core guarantee: two simulations with the
// same seed and same frame sequence inject byte-identical faults.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (Stats, []byte) {
		n := newTestNet(t, 99)
		err := n.set.Impair(Impairment{Link: testLink, Models: []Spec{
			Bernoulli(0.2), Corrupt(0.5),
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			n.send(t, []byte{byte(i), byte(i >> 8), 7, 7})
		}
		if err := n.sched.Run(); err != nil {
			t.Fatal(err)
		}
		return n.set.Stats(), n.lastB
	}
	s1, last1 := run()
	s2, last2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if string(last1) != string(last2) {
		t.Errorf("final delivered payload differs: %x vs %x", last1, last2)
	}
}

// TestInjectorDoesNotAllocate: judging a frame costs no allocation on either
// side of the link, whatever the chain decides. The verdict a chain fills in
// is scratch on its binding — handed to the models through an interface, a
// local one escaped, one malloc per frame per chain — and the bit list a
// corrupting model appends to is reused.
func TestInjectorDoesNotAllocate(t *testing.T) {
	n := newTestNet(t, 3)
	for _, imp := range []Impairment{
		{Link: testLink, Models: []Spec{Bernoulli(0.3), Corrupt(0.5)}},
		{Link: testLink, To: RoleRouter, Models: []Spec{Bernoulli(0.3)}},
	} {
		if err := n.set.Impair(imp); err != nil {
			t.Fatal(err)
		}
	}
	inj := n.set.injectors[testLink]
	f := ethernet.Frame{Src: n.a.MAC(), Dst: n.b.MAC(), Type: ethernet.TypeIPv4, Payload: make([]byte, 1500)}
	if allocs := testing.AllocsPerRun(1000, func() {
		inj.Tx(n.a, f)
		inj.Rx(n.b, f)
	}); allocs != 0 {
		t.Errorf("judging a frame allocates %.2f times, want 0", allocs)
	}
	if st := inj.stats; st.Dropped == 0 || st.Corrupted == 0 || st.Examined < 2000 {
		t.Errorf("the chains did not exercise every outcome: %+v", st)
	}
}
