package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
)

// TestEnumerate loses each frame of a small run in turn (the paper's
// section 4 cases and every other); these tests keep losing frames over
// long streams, where every case recurs and losses compound.

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
