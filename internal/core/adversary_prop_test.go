package core

import (
	"testing"

	"tcpfailover/internal/fault"
	"tcpfailover/internal/tcp"
)

// Property tests for the bridge's in-window validation, 1000 seeded trials
// a row: a forgery at a random sequence number must be dropped and counted
// nearly every time (the paper's bridge, which trusts the wire, fell to
// every one), and the positive control, the same forgery inside the
// horizon, must act exactly like the real segment.

const propTrials = 1000

// establishForAttack walks the handshake and one ack exchange so the
// connection reaches the steady state an off-path attacker targets:
// combined SYN sent, both replica acks recorded, last-ack valid.
func (f *priFixture) establishForAttack(t *testing.T) {
	t.Helper()
	f.establish(t)
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1, Flags: tcp.FlagACK, Window: 65535})
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1, Flags: tcp.FlagACK, Window: 60000})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1, Flags: tcp.FlagACK, Window: 58000})
}

// forgery is one row's outcome over propTrials connections.
type forgery struct {
	killed    int   // connections whose bridge record the forgery removed
	reflected int   // forgeries the bridge answered toward the client
	drops     int64 // segments counted in bridge_seq_invalid_drops_total
}

// forgeAtBridge hands each of propTrials established connections one
// segment built by forge from the row's trial stream, as a client segment
// or, with diverted, as the secondary's.
func forgeAtBridge(t *testing.T, stream string, diverted bool, forge func(rng *fault.Rand) tcp.Segment) forgery {
	t.Helper()
	rng := fault.NewRand(0xb11d).Split(stream)
	var out forgery
	for i := 0; i < propTrials; i++ {
		f := newPriFixture(t)
		f.establishForAttack(t)
		emitted := len(f.sent)
		seg := forge(rng)
		if diverted {
			f.fromSecondaryWire(t, &seg)
		} else {
			f.fromClientWire(t, &seg)
		}
		if f.b.Conns() == 0 {
			out.killed++
		}
		if len(f.sent) > emitted {
			out.reflected++
		}
		out.drops += f.b.Stats().SeqInvalidDrops
	}
	return out
}

// TestPropBridgeBlindRST: a forged client-side RST with a uniformly random
// sequence number must land inside a 64 KB window of a 4 GB space.
func TestPropBridgeBlindRST(t *testing.T) {
	t.Run("control-in-horizon-kills", func(t *testing.T) {
		got := forgeAtBridge(t, "rst", false, func(*fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1, Flags: tcp.FlagRST | tcp.FlagACK}
		})
		if got.killed != propTrials || got.drops != 0 {
			t.Errorf("%d/%d RSTs at the combined ack killed the connection (%d drops), want all (0)", got.killed, propTrials, got.drops)
		}
	})
	t.Run("on-attack-defeated", func(t *testing.T) {
		got := forgeAtBridge(t, "rst", false, func(rng *fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: tcp.Seq(rng.Uint64()), Ack: tcp.Seq(rng.Uint64()), Flags: tcp.FlagRST | tcp.FlagACK}
		})
		if got.killed > 3 {
			t.Errorf("%d/%d blind RSTs still killed the connection", got.killed, propTrials)
		}
		if got.drops != int64(propTrials-got.killed) {
			t.Errorf("drops = %d, want %d", got.drops, propTrials-got.killed)
		}
	})
}

// TestPropBridgeDivertedRST: the same probe arriving via the secondary's
// diverted path (an attacker spoofing the replica instead of the client).
func TestPropBridgeDivertedRST(t *testing.T) {
	t.Run("control-in-horizon-kills", func(t *testing.T) {
		got := forgeAtBridge(t, "diverted", true, func(*fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1, Flags: tcp.FlagRST | tcp.FlagACK}
		})
		if got.killed != propTrials || got.drops != 0 {
			t.Errorf("%d/%d RSTs at the release point killed the connection (%d drops), want all (0)", got.killed, propTrials, got.drops)
		}
	})
	t.Run("on-attack-defeated", func(t *testing.T) {
		got := forgeAtBridge(t, "diverted", true, func(rng *fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: tcp.Seq(rng.Uint64()), Ack: tcp.Seq(rng.Uint64()), Flags: tcp.FlagRST | tcp.FlagACK}
		})
		if got.killed > 3 {
			t.Errorf("%d/%d diverted RSTs still killed the connection", got.killed, propTrials)
		}
		if got.drops != int64(propTrials-got.killed) {
			t.Errorf("drops = %d, want %d", got.drops, propTrials-got.killed)
		}
	})
}

// TestPropBridgeStaleDataHorizon: forged client data with a random sequence
// number — the ACK-storm reflection primitive. Data the replicas have
// already acknowledged draws the bridge's immediate duplicate ack, so a
// probe must land within the ±64 KB horizon of the ack point to get any
// reaction at all; without the horizon about half the probes did.
func TestPropBridgeStaleDataHorizon(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	t.Run("control-in-horizon-reflected", func(t *testing.T) {
		got := forgeAtBridge(t, "stale", false, func(*fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: tcp.Seq(clientISS + 1).Add(-len(payload)), Ack: sISS + 1,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 65535, Payload: payload}
		})
		if got.reflected != propTrials || got.drops != 0 {
			t.Errorf("%d/%d stale segments inside the horizon answered (%d drops), want all (0)", got.reflected, propTrials, got.drops)
		}
	})
	t.Run("on-attack-defeated", func(t *testing.T) {
		got := forgeAtBridge(t, "stale", false, func(rng *fault.Rand) tcp.Segment {
			return tcp.Segment{Seq: tcp.Seq(rng.Uint64()), Ack: sISS + 1,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 65535, Payload: payload}
		})
		if got.reflected > 3 {
			t.Errorf("%d/%d stale probes still reflected", got.reflected, propTrials)
		}
		if got.drops < int64(propTrials)-3 {
			t.Errorf("drops = %d, want ~%d", got.drops, propTrials)
		}
	})
}
