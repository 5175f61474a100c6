package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/tcp"
)

// The paper's section 4 enumerates the places where message loss can occur
// and how the failover extension must handle each. These tests inject one
// targeted loss per case — a fault.DropWhen model bound to the right link
// and direction — on a replicated echo connection and require the transfer
// to complete byte-exact.

// payloadIsTCPData reports whether the frame payload carries a TCP segment
// with data toward the given IP destination.
func payloadIsTCPData(p []byte, dst ipv4.Addr) bool {
	hdr, payload, err := ipv4.Unmarshal(p)
	if err != nil || hdr.Protocol != ipv4.ProtoTCP || hdr.Dst != dst {
		return false
	}
	if len(payload) < tcp.HeaderLen {
		return false
	}
	return len(tcp.RawPayload(payload)) > 0
}

// runLossCase runs a replicated echo transfer, arms the impairment arm
// returns once the stream is warmed up, and requires a byte-exact transfer
// with exactly one injected drop.
func runLossCase(t *testing.T, arm func(sc *tcpfailover.Scenario) fault.Impairment) *tcpfailover.Scenario {
	t.Helper()
	sc := newScenario(t, tcpfailover.LANOptions(), echoServer)
	ec := startEchoClient(t, sc, 128*1024)

	runUntil(t, sc, func() bool { return ec.received > 16*1024 }, time.Minute)
	if err := sc.Faults.Impair(arm(sc)); err != nil {
		t.Fatalf("impair: %v", err)
	}
	runUntil(t, sc, func() bool { return ec.closed }, 10*time.Minute)
	if got := sc.Faults.Stats().Dropped; got != 1 {
		t.Fatalf("injected drops = %d, want 1", got)
	}
	return sc
}

// impairedEcho runs an echo transfer of total bytes through the pair over a
// network with the given impairments, and returns what they did.
func impairedEcho(t *testing.T, total int64, imps ...fault.Impairment) fault.Stats {
	t.Helper()
	opts := tcpfailover.LANOptions()
	opts.Faults = &fault.Plan{Impairments: imps}
	sc := newScenario(t, opts, echoServer)
	ec := startEchoClient(t, sc, total)
	runUntil(t, sc, func() bool { return ec.closed }, 30*time.Minute)
	return sc.Faults.Stats()
}

// Case 1: "The primary server does not receive a client segment m" — the
// secondary still does. The primary must not acknowledge until it receives
// a retransmission, and its own retransmitted reply is recognized by the
// bridge and sent immediately.
func TestLossCase1PrimaryDropsClientSegment(t *testing.T) {
	runLossCase(t, func(sc *tcpfailover.Scenario) fault.Impairment {
		return fault.Impairment{
			Link: fault.LinkServerLAN, To: fault.RolePrimary,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				return payloadIsTCPData(p, tcpfailover.PrimaryAddr)
			}, 1)},
		}
	})
}

// Case 2: "The secondary server drops the client segment although the
// primary server receives it."
func TestLossCase2SecondaryDropsClientSegment(t *testing.T) {
	runLossCase(t, func(sc *tcpfailover.Scenario) fault.Impairment {
		return fault.Impairment{
			Link: fault.LinkServerLAN, To: fault.RoleSecondary,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				return payloadIsTCPData(p, tcpfailover.PrimaryAddr)
			}, 1)},
		}
	})
}

// Case 3: "A client segment is lost on its way to the servers" — a
// transmit-side drop, so neither replica receives it; both retransmit their
// pending reply and the bridge sends it twice.
func TestLossCase3ClientSegmentLostOnWire(t *testing.T) {
	runLossCase(t, func(sc *tcpfailover.Scenario) fault.Impairment {
		return fault.Impairment{
			Link: fault.LinkServerLAN,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				return payloadIsTCPData(p, tcpfailover.PrimaryAddr)
			}, 1)},
		}
	})
}

// Case 4: "The secondary server's segment is dropped by the primary" — the
// diverted reply never reaches the bridge, so nothing goes to the client
// until both replicas retransmit.
func TestLossCase4DivertedSegmentDropped(t *testing.T) {
	runLossCase(t, func(sc *tcpfailover.Scenario) fault.Impairment {
		return fault.Impairment{
			Link: fault.LinkServerLAN, From: fault.RoleSecondary, To: fault.RolePrimary,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				hdr, payload, err := ipv4.Unmarshal(p)
				if err != nil || hdr.Protocol != ipv4.ProtoTCP ||
					hdr.Src != tcpfailover.SecondaryAddr || len(payload) < tcp.HeaderLen {
					return false
				}
				return len(tcp.RawPayload(payload)) > 0
			}, 1)},
		}
	})
}

// Case 5: "The primary server's segment is lost on its way to the client."
// Both replicas retransmit; the bridge forwards both copies.
func TestLossCase5MergedSegmentLostTowardClient(t *testing.T) {
	var before int64
	sc := runLossCase(t, func(sc *tcpfailover.Scenario) fault.Impairment {
		before = sc.Group.PrimaryBridge().Stats().RetransmissionsForwarded
		return fault.Impairment{
			Link: fault.LinkClientLink,
			Models: []fault.Spec{fault.DropWhen(func(p []byte) bool {
				return payloadIsTCPData(p, tcpfailover.ClientAddr)
			}, 1)},
		}
	})
	// The bridge must have recognized at least one server retransmission
	// ("the primary server bridge will send two copies of m to C").
	if got := sc.Group.PrimaryBridge().Stats().RetransmissionsForwarded; got <= before {
		t.Errorf("RetransmissionsForwarded = %d, want > %d", got, before)
	}
}

// TestLossSustainedRandom drives the replicated stream through sustained
// random loss on both LANs — every section 4 case occurs repeatedly.
func TestLossSustainedRandom(t *testing.T) {
	loss := []fault.Spec{fault.Bernoulli(0.01)}
	if impairedEcho(t, 256*1024, fault.Impairment{Link: fault.LinkServerLAN, Models: loss},
		fault.Impairment{Link: fault.LinkClientLink, Models: loss}).Dropped == 0 {
		t.Error("no loss actually occurred")
	}
}

// TestLossSustainedBursty repeats the sustained-loss transfer through a
// Gilbert–Elliott bursty channel, where consecutive losses defeat
// single-retransmission recovery paths.
func TestLossSustainedBursty(t *testing.T) {
	loss := []fault.Spec{fault.BurstyLoss(0.01)}
	if impairedEcho(t, 256*1024, fault.Impairment{Link: fault.LinkServerLAN, Models: loss},
		fault.Impairment{Link: fault.LinkClientLink, Models: loss}).Dropped == 0 {
		t.Error("no loss actually occurred")
	}
}
