package tcpfailover_test

import (
	"math/rand"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// The bridge's Delta-seq arithmetic across the 2^32 boundary: the replicas'
// initial sequence numbers straddle the wrap, so Delta-seq itself wraps,
// and the translated stream crosses zero mid-transfer.

// wrapEcho installs the echo service with the replicas' initial sequence
// numbers set; the unreplicated twin's server takes the primary's.
func wrapEcho(primaryISS, secondaryISS uint32) func(*netstack.Host) error {
	return func(h *netstack.Host) error {
		iss := tcp.Seq(primaryISS)
		if h.Name() == "secondary" {
			iss = tcp.Seq(secondaryISS)
		}
		h.SetTCPConfig(tcp.Config{ISS: func(*rand.Rand) tcp.Seq { return iss }})
		return echoServer(h)
	}
}

func runWrapTransfer(t *testing.T, sc *tcpfailover.Scenario, crash bool) {
	t.Helper()
	ec := startEchoClient(t, sc, 96*1024)
	if crash {
		runUntil(t, sc, func() bool { return ec.received > 24*1024 }, time.Minute)
		sc.Group.Crash(0)
	}
}

func TestBridgeDeltaSeqWrap(t *testing.T) {
	cases := []struct {
		name       string
		pISS, sISS uint32
	}{
		{"secondary_near_wrap", 1000, 0xffffffff - 2000},
		{"primary_near_wrap", 0xffffffff - 2000, 1000},
		{"both_near_wrap", 0xffffffff - 500, 0xffffffff - 40000},
		{"secondary_at_max", 123456, 0xffffffff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runWrapTransfer(t, newScenario(t, tcpfailover.LANOptions(), wrapEcho(tc.pISS, tc.sISS)), false)
		})
	}
}

func TestBridgeDeltaSeqWrapWithFailover(t *testing.T) {
	// The client's sequence space (synchronized to the secondary) crosses
	// zero right around the takeover.
	runWrapTransfer(t, newScenario(t, tcpfailover.LANOptions(), wrapEcho(7777, 0xffffffff-20000)), true)
}

// TestWANFailover: the paper's WAN profile with a primary crash mid-FTP-
// style bulk transfer — high RTT and loss compound with the takeover.
func TestWANFailoverBulk(t *testing.T) {
	sc := newScenario(t, tcpfailover.WANOptions(), echoServer)
	ec := startEchoClient(t, sc, 96*1024)
	runUntil(t, sc, func() bool { return ec.received > 16*1024 }, 10*time.Minute)
	sc.Group.Crash(0)
}
