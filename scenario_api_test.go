package tcpfailover_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/netstack"
)

// Facade-level API behavior.

func TestScenarioRejectsBadReplicationDegree(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Backups = 5
	if _, err := tcpfailover.NewScenario(opts); err == nil {
		t.Fatal("Backups=5 accepted")
	}
}

func TestScenarioUnreplicatedHasNoGroup(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Unreplicated = true
	sc := newScenario(t, opts, nil) // starts it: must not panic with no detectors
	if sc.Group != nil || sc.Secondary != nil {
		t.Error("unreplicated scenario built replication machinery")
	}
}

func TestRunUntilTimesOut(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), nil)
	err := sc.RunUntil(func() bool { return false }, 50*time.Millisecond)
	if !errors.Is(err, tcpfailover.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if sc.Now() < 50*time.Millisecond {
		t.Errorf("clock at %v, want past the deadline", sc.Now())
	}
}

func TestDetectorsCanBeDisabled(t *testing.T) {
	opts := tcpfailover.LANOptions()
	off := false
	opts.StartDetectors = &off
	sc := newScenario(t, opts, nil)
	// With no detectors and no traffic the event queue drains completely.
	if err := sc.Sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sc.Sched.PendingEvents() != 0 {
		t.Errorf("%d events pending in a quiet scenario", sc.Sched.PendingEvents())
	}
	// And no failover ever triggers.
	sc.Group.Crash(0)
	if err := sc.Sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !sc.Group.SecondaryBridge().Active() {
		t.Error("takeover ran despite detectors being disabled")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
		ec := startEchoClient(t, sc, 64*1024)
		runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)
		return sc.Now(), sc.Group.PrimaryBridge().Stats().SegmentsToClient
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("runs diverged: (%v, %d) vs (%v, %d)", t1, s1, t2, s2)
	}
}

func TestWANOptionsShape(t *testing.T) {
	o := tcpfailover.WANOptions()
	if o.ClientLink.BandwidthBps >= 100_000_000 {
		t.Error("WAN link not a bottleneck")
	}
	if o.ClientLink.Propagation == 0 || o.ClientLink.LossRate == 0 {
		t.Error("WAN link missing latency/loss")
	}
	if o.ServerLAN.BandwidthBps != 0 && o.ServerLAN.BandwidthBps < 100_000_000 {
		t.Error("server LAN should stay fast")
	}
}

// A crash from outside the fault schedule must stamp the failure mark too,
// or the span model has nothing to measure the stall against and says so
// only by returning false.
func TestCrashPrimaryMarksFailure(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Spans = true
	sc := newScenario(t, opts, echoServer)
	ec := startEchoClient(t, sc, 256*1024)
	runUntil(t, sc, func() bool { return ec.received >= 64*1024 }, time.Minute)
	crashedAt := sc.Now()
	sc.Group.Crash(0)
	runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)
	if at, ok := sc.Spans.FailureMark(); !ok || at != crashedAt {
		t.Fatalf("failure mark = (%v, %v), want the crash instant %v", at, ok, crashedAt)
	}
	spans := sc.Spans.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	if st, ok := sc.Spans.Stall(&spans[0]); !ok || st.Total < 50*time.Millisecond {
		t.Fatalf("Stall = (%+v, %v), want a completed stall past the detection timeout", st, ok)
	}
}

// A Stats field that has a series is a view of it, so the series must
// belong to that one component: bump every counter in the registry in turn
// and watch every Stats() view in the scenario. A series moves at most one
// field, a field is moved by at most one series, and the number of views is
// pinned so that adding one means reading this test.
func TestStatsViewsOwnTheirSeries(t *testing.T) {
	sc := newScenario(t, tcpfailover.LANOptions(), nil)
	views := func() map[string]int64 {
		out := map[string]int64{}
		flatten := func(owner string, stats any) {
			v := reflect.ValueOf(stats)
			for i := range v.NumField() {
				out[owner+"."+v.Type().Field(i).Name] = v.Field(i).Int()
			}
		}
		for _, h := range []*netstack.Host{sc.Client, sc.Primary, sc.Secondary, sc.Router} {
			flatten(h.Name(), h.TCP().Stats())
		}
		flatten("serverlan", sc.ServerLAN.Stats())
		flatten("clientlink", sc.ClientLink.Stats())
		flatten("pbridge", sc.Group.PrimaryBridge().Stats())
		flatten("sbridge", sc.Group.SecondaryBridge().Stats())
		return out
	}
	views() // hosts build their TCP stacks, and attach them, on first use
	movedBy := map[string]string{}
	for _, s := range sc.Obs.Snapshot() {
		if s.Kind != "counter" {
			continue
		}
		before := views()
		sc.Obs.Counter(s.Name).Add(1 << 40)
		var moved []string
		for field, v := range views() {
			if v != before[field] {
				moved = append(moved, field)
			}
		}
		if len(moved) > 1 {
			t.Errorf("series %s feeds %d views: %v", s.Name, len(moved), moved)
		}
		for _, field := range moved {
			if other, dup := movedBy[field]; dup {
				t.Errorf("view %s reads both %s and %s", field, other, s.Name)
			}
			movedBy[field] = s.Name
		}
	}
	// 4 stacks x 2 fields, 2 links x 3, the primary bridge's 4, the secondary's 3.
	if len(movedBy) != 21 {
		t.Errorf("%d Stats fields are views of a series, want 21: %v", len(movedBy), movedBy)
	}
}
