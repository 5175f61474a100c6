package tcp

import (
	"testing"
	"time"

	"tcpfailover/internal/fault"
)

// Property tests for the endpoint half of the blind-RST defence (RFC 5961
// §3.2 shape, strictSeqOK), 1000 seeded trials a row: a forgery at a random
// sequence number must almost never kill the connection (under the legacy
// half-space test about half did), and the positive control, the same
// forgery at exactly rcvNxt, must kill every one.

// forgeAtEndpoint runs propRSTTrials established connections, hands each
// server end one forged client segment built by forge from the trial stream
// and the server's rcvNxt, and returns how many the forgery killed.
func forgeAtEndpoint(t *testing.T, stream string, forge func(rng *fault.Rand, rcvNxt Seq) Segment) int {
	t.Helper()
	rng := fault.NewRand(0x5eed).Split(stream)
	killed := 0
	for i := 0; i < propRSTTrials; i++ {
		p := newPair(t, Config{})
		client, server := p.connect(t, 80)
		died := false
		server.OnClose(func(err error) {
			if err != nil {
				died = true
			}
		})
		// Spoof the established connection's exact 4-tuple.
		tup := client.Tuple()
		seg := forge(rng, server.rcvNxt)
		seg.SrcPort, seg.DstPort = tup.LocalPort, tup.RemotePort
		p.b.Input(p.aAddr, p.bAddr, Marshal(p.aAddr, p.bAddr, &seg))
		_ = p.sched.RunFor(50 * time.Millisecond)
		if died || server.State() == StateClosed {
			killed++
		}
	}
	return killed
}

func TestPropEndpointBlindRST(t *testing.T) {
	t.Run("control-at-rcvnxt-kills", func(t *testing.T) {
		killed := forgeAtEndpoint(t, "endpoint-rst", func(_ *fault.Rand, rcvNxt Seq) Segment {
			return Segment{Seq: rcvNxt, Flags: FlagRST | FlagACK}
		})
		if killed != propRSTTrials {
			t.Errorf("%d/%d RSTs at rcvNxt killed the connection, want all", killed, propRSTTrials)
		}
	})
	t.Run("on-attack-defeated", func(t *testing.T) {
		killed := forgeAtEndpoint(t, "endpoint-rst", func(rng *fault.Rand, _ Seq) Segment {
			return Segment{Seq: Seq(rng.Uint64()), Ack: Seq(rng.Uint64()), Flags: FlagRST | FlagACK}
		})
		if killed > 3 {
			t.Errorf("%d/%d blind RSTs killed the connection", killed, propRSTTrials)
		}
	})
}

// TestPropEndpointBlindSYN covers the companion rule: a forged SYN resets an
// established connection only from inside the receive window.
func TestPropEndpointBlindSYN(t *testing.T) {
	t.Run("control-at-rcvnxt-kills", func(t *testing.T) {
		killed := forgeAtEndpoint(t, "endpoint-syn", func(_ *fault.Rand, rcvNxt Seq) Segment {
			return Segment{Seq: rcvNxt, Flags: FlagSYN, Window: 65535}
		})
		if killed != propRSTTrials {
			t.Errorf("%d/%d SYNs at rcvNxt killed the connection, want all", killed, propRSTTrials)
		}
	})
	t.Run("on-attack-defeated", func(t *testing.T) {
		killed := forgeAtEndpoint(t, "endpoint-syn", func(rng *fault.Rand, _ Seq) Segment {
			return Segment{Seq: Seq(rng.Uint64()), Flags: FlagSYN, Window: 65535}
		})
		if killed > 3 {
			t.Errorf("%d/%d blind SYNs killed the connection", killed, propRSTTrials)
		}
	})
}

const propRSTTrials = 1000
