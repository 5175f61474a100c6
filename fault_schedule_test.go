package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
)

// These tests drive replica failures through the declarative failure
// schedule (Options.Faults.Schedule) instead of imperative Group.Crash
// calls: the crash is an event inside the simulation, armed at build time,
// so the whole faulty run is reproducible from the scenario options alone.

// scheduled is the LAN testbed whose failure schedule is the given steps.
func scheduled(steps ...fault.Step) tcpfailover.Options {
	opts := tcpfailover.LANOptions()
	opts.Faults = &fault.Plan{Schedule: steps}
	return opts
}

// TestScheduleCrashSecondaryDegradedFlush crashes the secondary mid-stream.
// The primary bridge is then holding primary output bytes with no matching
// secondary copy; degraded mode must flush them to the client rather than
// wait forever (section 6).
func TestScheduleCrashSecondaryDegradedFlush(t *testing.T) {
	sc := newScenario(t, scheduled(fault.Step{At: 30 * time.Millisecond, Op: fault.OpCrashSecondary}), echoServer)
	startEchoClient(t, sc, 192*1024)
	runUntil(t, sc, sc.Group.PrimaryBridge().Degraded, time.Minute)
}

// TestSchedulePartitionThenHeal cuts the server LAN between the primary and
// the secondary, in one or both directions, then heals it. A cut shorter
// than the 50 ms detection timeout changes nothing. A longer one leaves
// each replica acting on what its own detectors heard: the one that stops
// hearing the other takes over or degrades. A primary displaced by a
// takeover fail-stops at the first heartbeat that carries the secondary's
// claim on the service address, so one live host owns it at the end and
// the displaced primary sends nothing from it once that claim can reach it.
func TestSchedulePartitionThenHeal(t *testing.T) {
	const period = 10 * time.Millisecond // the detectors' default heartbeat period
	cut := func(name string, from, to fault.Role) fault.Impairment {
		return fault.Impairment{Link: fault.LinkServerLAN, From: from, To: to,
			Models: []fault.Spec{fault.PartitionGate(name, false)}}
	}
	pToS := cut("p-to-s", fault.RolePrimary, fault.RoleSecondary)
	sToP := cut("s-to-p", fault.RoleSecondary, fault.RolePrimary)
	window := func(heal time.Duration, names ...string) []fault.Step {
		var steps []fault.Step
		for _, n := range names {
			steps = append(steps, fault.Step{At: 10 * time.Millisecond, Op: fault.OpPartition, Arg: n},
				fault.Step{At: heal, Op: fault.OpHeal, Arg: n})
		}
		return steps
	}
	heartbeatsOnly := fault.Impairment{Link: fault.LinkServerLAN, From: fault.RolePrimary, To: fault.RoleSecondary,
		Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
			hdr, _, err := ipv4.Unmarshal(p)
			return err == nil && hdr.Protocol == ipv4.ProtoHeartbeat
		}, 11)}}
	cases := []struct {
		name     string
		plan     fault.Plan
		heal     time.Duration // when the claim's path to the primary reopens
		takeover bool          // the secondary takes over and the primary is fenced
		degraded bool          // the primary gives up on the secondary
	}{
		{name: "sub-timeout cut", plan: fault.Plan{Impairments: []fault.Impairment{pToS, sToP},
			Schedule: window(35*time.Millisecond, "p-to-s", "s-to-p")}},
		{name: "P<->S cut", plan: fault.Plan{Impairments: []fault.Impairment{pToS, sToP},
			Schedule: window(120*time.Millisecond, "p-to-s", "s-to-p")},
			heal: 120 * time.Millisecond, takeover: true, degraded: true},
		{name: "P->S cut", plan: fault.Plan{Impairments: []fault.Impairment{pToS},
			Schedule: window(120*time.Millisecond, "p-to-s")}, takeover: true},
		{name: "S->P cut", plan: fault.Plan{Impairments: []fault.Impairment{sToP},
			Schedule: window(120*time.Millisecond, "s-to-p")}, degraded: true},
		{name: "P->S heartbeats lost", plan: fault.Plan{Impairments: []fault.Impairment{heartbeatsOnly}},
			takeover: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			opts.Faults = &tc.plan
			sc := newScenario(t, opts, echoServer)
			takeoverAt := time.Duration(-1)
			sc.Group.OnFailover = func(pos int) {
				if pos == 0 {
					takeoverAt = sc.Now()
				}
			}
			late := 0 // TCP segments the displaced primary sends once the claim can reach it
			sc.Primary.AddPacketTap(func(dir string, hdr ipv4.Header, _ []byte) {
				if dir == "tx" && hdr.Protocol == ipv4.ProtoTCP && hdr.Src == sc.ServiceAddr() &&
					takeoverAt >= 0 && sc.Now() >= max(tc.heal, takeoverAt+2*period) {
					late++
				}
			})
			ec := startEchoClient(t, sc, 2<<20)
			runUntil(t, sc, func() bool { return ec.closed }, 30*time.Minute)
			if sc.Faults.Stats().Dropped == 0 {
				t.Error("the fault dropped nothing")
			}
			if got := sc.Group.SecondaryBridge().Stats().TakenOver > 0; got != tc.takeover {
				t.Errorf("secondary took over: %v, want %v", got, tc.takeover)
			}
			if got := sc.Group.PrimaryBridge().Degraded(); got != tc.degraded {
				t.Errorf("primary degraded: %v, want %v", got, tc.degraded)
			}
			owners := 0
			for _, h := range []*netstack.Host{sc.Primary, sc.Secondary} {
				if h.Alive() && h.Owns(sc.ServiceAddr()) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("%d live owners of the service address at the end, want 1", owners)
			}
			if late != 0 {
				t.Errorf("displaced primary sent %d TCP segments from the service address after the claim could reach it", late)
			}
			want := int64(0)
			if tc.takeover { // the displaced primary fences once
				want = 1
			}
			if fences, _ := sc.Obs.Lookup("replica_fences_total"); fences != want {
				t.Errorf("replica_fences_total = %d, want %d", fences, want)
			}
		})
	}
}

// TestScheduleCascade layers a cascading failure: the network first loses
// frames on both links, then the primary crashes; later the tertiary
// depth-2 extension is not in play, so the promoted secondary finishes the
// stream alone through the lossy network.
func TestScheduleCascade(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Faults = &fault.Plan{
		Impairments: []fault.Impairment{
			{Link: fault.LinkServerLAN, Models: []fault.Spec{fault.Bernoulli(0.005)}},
			{Link: fault.LinkClientLink, Models: []fault.Spec{fault.Bernoulli(0.005)}},
		},
		Schedule: []fault.Step{
			{At: 30 * time.Millisecond, Op: fault.OpCrashPrimary},
		},
	}
	startEchoClient(t, newScenario(t, opts, echoServer), 128*1024)
}

// TestScheduleValidation pins the build-time rejection of schedules the
// topology cannot honor.
func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*tcpfailover.Options)
	}{
		{"crash-secondary unreplicated", func(o *tcpfailover.Options) {
			o.Unreplicated = true
			o.Faults = &fault.Plan{Schedule: []fault.Step{{Op: fault.OpCrashSecondary}}}
		}},
		{"crash-tertiary without tertiary", func(o *tcpfailover.Options) {
			o.Faults = &fault.Plan{Schedule: []fault.Step{{Op: fault.OpCrashTertiary}}}
		}},
		{"unknown partition", func(o *tcpfailover.Options) {
			o.Faults = &fault.Plan{Schedule: []fault.Step{{Op: fault.OpPartition, Arg: "nonesuch"}}}
		}},
		{"unknown op", func(o *tcpfailover.Options) {
			o.Faults = &fault.Plan{Schedule: []fault.Step{{Op: "reboot"}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			tc.mut(&opts)
			if _, err := tcpfailover.NewScenario(opts); err == nil {
				t.Error("invalid schedule accepted at build time")
			}
		})
	}
}
