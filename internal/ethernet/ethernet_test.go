package ethernet

import (
	"testing"
	"time"

	"tcpfailover/internal/sim"
)

func testSegment(cfg Config) (*sim.Scheduler, *Segment) {
	s := sim.New(1)
	return s, NewSegment(s, cfg)
}

type rxRecord struct {
	frames []Frame
}

func attach(seg *Segment, mac MAC) (*NIC, *rxRecord) {
	nic := seg.Attach(mac)
	rec := &rxRecord{}
	nic.SetHandler(func(f Frame) { rec.frames = append(rec.frames, f) })
	return nic, rec
}

var (
	macA = MAC{2, 0, 0, 0, 0, 1}
	macB = MAC{2, 0, 0, 0, 0, 2}
	macC = MAC{2, 0, 0, 0, 0, 3}
)

func TestUnicastDelivery(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	_, rb := attach(seg, macB)
	_, rc := attach(seg, macC)

	if err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 {
		t.Fatalf("B received %d frames, want 1", len(rb.frames))
	}
	if rb.frames[0].Src != macA {
		t.Errorf("Src = %v, want %v", rb.frames[0].Src, macA)
	}
	if len(rc.frames) != 0 {
		t.Errorf("C received %d frames, want 0 (not promiscuous)", len(rc.frames))
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, ra := attach(seg, macA)
	_, rb := attach(seg, macB)
	_, rc := attach(seg, macC)
	if err := a.Send(Frame{Dst: Broadcast, Type: TypeARP, Payload: []byte("who-has")}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ra.frames) != 0 {
		t.Error("sender received its own broadcast")
	}
	if len(rb.frames) != 1 || len(rc.frames) != 1 {
		t.Errorf("broadcast delivery: B=%d C=%d, want 1 each", len(rb.frames), len(rc.frames))
	}
}

// TestPromiscuousSnooping is the property the paper's secondary depends on:
// a promiscuous NIC receives frames addressed to other stations.
func TestPromiscuousSnooping(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	_, rb := attach(seg, macB)
	nicC, rc := attach(seg, macC)
	nicC.SetPromiscuous(true)

	if err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("secret")}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 {
		t.Fatalf("B received %d, want 1", len(rb.frames))
	}
	if len(rc.frames) != 1 {
		t.Fatalf("promiscuous C received %d, want 1", len(rc.frames))
	}

	// Disabling promiscuous mode (failover step 2) stops the snooping.
	nicC.SetPromiscuous(false)
	if err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rc.frames) != 1 {
		t.Errorf("C received %d after disabling promiscuous mode, want still 1", len(rc.frames))
	}
}

// TestReceiversGetPrivateCopies: each station may patch its copy in place
// (the bridges do) without affecting other receivers.
func TestReceiversGetPrivateCopies(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	nicB := seg.Attach(macB)
	nicC := seg.Attach(macC)
	nicC.SetPromiscuous(true)
	var atB, atC []byte
	nicB.SetHandler(func(f Frame) {
		f.Payload[0] = 'X' // mutate in place
		atB = f.Payload
	})
	nicC.SetHandler(func(f Frame) { atC = f.Payload })

	if err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if string(atB) != "Xbc" {
		t.Errorf("B's copy = %q", atB)
	}
	if string(atC) != "abc" {
		t.Errorf("C's copy = %q, mutated by B's handler", atC)
	}
}

func TestSerializationTiming(t *testing.T) {
	sched, seg := testSegment(Config{BandwidthBps: 100_000_000, Propagation: time.Microsecond})
	a, _ := attach(seg, macA)
	nicB := seg.Attach(macB)
	var deliveredAt time.Duration
	nicB.SetHandler(func(Frame) { deliveredAt = sched.Now() })

	payload := make([]byte, 1000)
	if err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 + 18 header/crc + 20 preamble/IFG = 1038 bytes = 8304 bits at
	// 100 Mbit/s = 83.04 us, plus 1 us propagation.
	want := 83040*time.Nanosecond + time.Microsecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestMediumSerializesTransmissions(t *testing.T) {
	sched, seg := testSegment(Config{BandwidthBps: 100_000_000})
	a, _ := attach(seg, macA)
	b, _ := attach(seg, macB)
	nicC := seg.Attach(macC)
	var times []time.Duration
	nicC.SetHandler(func(Frame) { times = append(times, sched.Now()) })

	p := make([]byte, 1480)
	_ = a.Send(Frame{Dst: macC, Type: TypeIPv4, Payload: p})
	_ = b.Send(Frame{Dst: macC, Type: TypeIPv4, Payload: p})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("received %d frames, want 2", len(times))
	}
	ser := 1518 * 8 * time.Nanosecond * 10 // (1480+38) bytes at 100 Mbit/s
	if times[1]-times[0] < ser {
		t.Errorf("second frame arrived %v after first, want >= %v (no overlap on the medium)",
			times[1]-times[0], ser)
	}
}

func TestLossRateDropsFrames(t *testing.T) {
	sched, seg := testSegment(Config{LossRate: 1.0})
	a, _ := attach(seg, macA)
	_, rb := attach(seg, macB)
	for range 10 {
		_ = a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("x")})
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 0 {
		t.Errorf("received %d frames despite 100%% loss", len(rb.frames))
	}
	if seg.Stats().Lost != 10 {
		t.Errorf("Lost = %d, want 10", seg.Stats().Lost)
	}
}

func TestCollisionsDelayContendedAccess(t *testing.T) {
	cfg := Config{HalfDuplex: true, CollisionProb: 1.0}
	sched, seg := testSegment(cfg)
	a, _ := attach(seg, macA)
	b, _ := attach(seg, macB)
	_, rc := attach(seg, macC)
	p := make([]byte, 1000)
	_ = a.Send(Frame{Dst: macC, Type: TypeIPv4, Payload: p})
	_ = b.Send(Frame{Dst: macC, Type: TypeIPv4, Payload: p}) // contends
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rc.frames) != 2 {
		t.Fatalf("received %d frames, want 2 (collisions delay, not drop)", len(rc.frames))
	}
	if seg.Stats().Collisions == 0 {
		t.Error("no collisions recorded despite certain contention")
	}
}

func TestMTUEnforced(t *testing.T) {
	_, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	err := a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: make([]byte, 1501)})
	if err == nil {
		t.Fatal("expected MTU error")
	}
}

func TestDownNICNeitherSendsNorReceives(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	nicB, rb := attach(seg, macB)
	nicB.SetUp(false)
	_ = a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("x")})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 0 {
		t.Error("down NIC received a frame")
	}
	if err := nicB.Send(Frame{Dst: macA, Type: TypeIPv4, Payload: []byte("y")}); err != nil {
		t.Errorf("send on down NIC should silently drop, got %v", err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if frames := seg.Stats().Frames; frames != 1 {
		t.Errorf("segment carried %d frames, want 1: the down NIC transmitted", frames)
	}
}

// stubImpairer is the least Impairer: it loses every transmission when tx
// is set and otherwise every frame arriving at rxAt.
type stubImpairer struct {
	tx   bool
	rxAt *NIC
}

func (i *stubImpairer) Tx(*NIC, Frame) bool       { return i.tx }
func (i *stubImpairer) Rx(dst *NIC, _ Frame) bool { return dst == i.rxAt }

func TestImpairerDrops(t *testing.T) {
	sched, seg := testSegment(Config{})
	a, _ := attach(seg, macA)
	_, rb := attach(seg, macB)
	nicC, rc := attach(seg, macC)
	nicC.SetPromiscuous(true)

	// Receive side: lose the frame at C only.
	imp := &stubImpairer{rxAt: nicC}
	seg.SetImpairer(imp)
	_ = a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("x")})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 || len(rc.frames) != 0 {
		t.Errorf("rx drop: B=%d C=%d, want 1/0", len(rb.frames), len(rc.frames))
	}

	// Transmit side: lose the frame for everyone.
	*imp = stubImpairer{tx: true}
	_ = a.Send(Frame{Dst: macB, Type: TypeIPv4, Payload: []byte("y")})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rb.frames) != 1 {
		t.Errorf("tx drop: B received %d, want still 1", len(rb.frames))
	}
}

func TestMACString(t *testing.T) {
	if got := macA.String(); got != "02:00:00:00:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
	if !Broadcast.IsBroadcast() {
		t.Error("Broadcast.IsBroadcast() = false")
	}
}
