package detect_test

import (
	"testing"
	"time"

	"tcpfailover/internal/detect"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

type duo struct {
	sched *sim.Scheduler
	a, b  *netstack.Host
	aAddr ipv4.Addr
	bAddr ipv4.Addr
}

func newDuo(t *testing.T) *duo {
	t.Helper()
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	d := &duo{
		sched: sched,
		aAddr: ipv4.MustParseAddr("10.0.1.1"),
		bAddr: ipv4.MustParseAddr("10.0.1.2"),
	}
	d.a = netstack.NewHost(sched, "a", netstack.DefaultProfile())
	d.a.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 1}, d.aAddr, prefix)
	d.b = netstack.NewHost(sched, "b", netstack.DefaultProfile())
	d.b.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 2}, d.bAddr, prefix)
	return d
}

func TestNoFalsePositiveWhileAlive(t *testing.T) {
	d := newDuo(t)
	fired := false
	da := detect.New(d.a, d.aAddr, d.bAddr, func() { fired = true })
	db := detect.New(d.b, d.bAddr, d.aAddr, func() { fired = true })
	da.Start()
	db.Start()
	if err := d.sched.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("fault detector fired with both hosts healthy")
	}
	da.Stop()
	db.Stop()
}

func TestDetectsCrashWithinTimeout(t *testing.T) {
	d := newDuo(t)
	var firedAt time.Duration
	fired := 0
	da := detect.New(d.a, d.aAddr, d.bAddr, func() { firedAt = d.sched.Now(); fired++ })
	db := detect.New(d.b, d.bAddr, d.aAddr, func() {})
	da.Start()
	db.Start()
	if err := d.sched.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	crashAt := d.sched.Now()
	d.b.Crash()
	if err := d.sched.RunUntil(crashAt + time.Second); err != nil {
		t.Fatal(err)
	}
	if firedAt == 0 {
		t.Fatal("crash never detected")
	}
	latency := firedAt - crashAt
	// The detector's constants: a 10 ms period and a 50 ms timeout.
	const period, timeout = 10 * time.Millisecond, 50 * time.Millisecond
	if latency < timeout || latency > timeout+3*period {
		t.Errorf("detection latency %v, want within [%v, %v]", latency, timeout, timeout+3*period)
	}
	if fired != 1 {
		t.Errorf("onFailure ran %d times after detection, want 1", fired)
	}
	da.Stop()
}

func TestOnFailureRunsOnce(t *testing.T) {
	d := newDuo(t)
	count := 0
	da := detect.New(d.a, d.aAddr, d.bAddr, func() { count++ })
	da.Start() // peer never starts: failure is certain
	if err := d.sched.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("onFailure ran %d times, want exactly 1", count)
	}
}

func TestStopSilencesDetector(t *testing.T) {
	d := newDuo(t)
	fired := false
	da := detect.New(d.a, d.aAddr, d.bAddr, func() { fired = true })
	da.Start()
	da.Stop()
	if err := d.sched.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("stopped detector fired")
	}
}

func TestCrashedHostDetectorGoesQuiet(t *testing.T) {
	// A detector on a crashed host must not keep firing events forever.
	d := newDuo(t)
	fired := false
	da := detect.New(d.a, d.aAddr, d.bAddr, func() { fired = true })
	db := detect.New(d.b, d.bAddr, d.aAddr, func() {})
	da.Start()
	db.Start()
	if err := d.sched.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	d.a.Crash() // the watching host itself dies
	if err := d.sched.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("detector on the crashed host declared the (healthy) peer failed")
	}
}

// TestClaimBitRoundTrip: a detector whose host owns the claimed address
// sets the claim bit in its 8-byte heartbeats and the peer's onClaim runs
// for each; the peer, which does not own it, sends none.
func TestClaimBitRoundTrip(t *testing.T) {
	d := newDuo(t)
	var heardByA, heardByB int
	da := detect.New(d.a, d.aAddr, d.bAddr, func() {})
	db := detect.New(d.b, d.bAddr, d.aAddr, func() {})
	da.Claim(d.aAddr, func() { heardByA++ })
	db.Claim(d.aAddr, func() { heardByB++ })
	var beats, claims int
	d.b.RegisterProtocol(ipv4.ProtoHeartbeat, func(hdr ipv4.Header, payload []byte) {
		beats++
		if len(payload) != 8 {
			t.Errorf("heartbeat payload is %d bytes, want 8", len(payload))
		}
		if len(payload) > 0 && payload[0]&0x80 != 0 {
			claims++
		}
	})
	da.Start()
	db.Start()
	if err := d.sched.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if beats == 0 || claims != beats || heardByB != claims || heardByA != 0 {
		t.Errorf("b got %d heartbeats, %d with the claim bit, onClaim ran %d times; a's onClaim ran %d times",
			beats, claims, heardByB, heardByA)
	}
}

// TestDetectorSteadyStateAllocs: once the event pool, the frame buffers and
// the ARP caches are warm, ten seconds of heartbeats between two healthy
// hosts allocate nothing — the detectors can stay on under an allocation
// gate instead of being the reason it runs without them.
func TestDetectorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := newDuo(t)
	fired := false
	detect.New(d.a, d.aAddr, d.bAddr, func() { fired = true }).Start()
	detect.New(d.b, d.bAddr, d.aAddr, func() { fired = true }).Start()
	if err := d.sched.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := d.sched.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || fired {
		t.Errorf("10 s of heartbeats: %v allocations (want 0), fired %v", allocs, fired)
	}
}
