package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// The fault subsystem's corrupt model flips a single bit per frame — the
// kind of damage that slips past the (unmodelled) Ethernet CRC. The IPv4
// header checksum and the TCP pseudo-header checksum are then the last
// line of defense: a corrupted payload must never reach an application.

// TestCorruptionAlwaysCaughtByChecksums is the wire-level property across
// 1000 seeded trials: a random single-bit flip anywhere in a TCP/IPv4
// datagram is always rejected by one of the two checksums. Ones-complement
// sums detect every single-bit error, so zero escapes are expected.
func TestCorruptionAlwaysCaughtByChecksums(t *testing.T) {
	src, dst := tcpfailover.ClientAddr, tcpfailover.PrimaryAddr
	for trial := 0; trial < 1000; trial++ {
		rng := fault.NewRand(uint64(trial))
		payload := make([]byte, 1+rng.Intn(1400))
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		seg := &tcp.Segment{
			SrcPort: 40000, DstPort: 80,
			Seq:     tcp.Seq(rng.Uint64()),
			Ack:     tcp.Seq(rng.Uint64()),
			Flags:   tcp.FlagACK | tcp.FlagPSH,
			Window:  uint16(rng.Uint64()),
			Payload: payload,
		}
		dgram := ipv4.Marshal(ipv4.Header{TTL: 64, Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
			tcp.Marshal(src, dst, seg))

		// The same single-bit flip the fault injector applies.
		bit := rng.Intn(len(dgram) * 8)
		dgram[bit/8] ^= 1 << (bit % 8)

		hdr, tcpBytes, err := ipv4.Unmarshal(dgram)
		if err != nil {
			continue // caught by the IPv4 header checksum (or version check)
		}
		if _, err := tcp.Unmarshal(hdr.Src, hdr.Dst, tcpBytes, true); err != nil {
			continue // caught by the TCP checksum
		}
		t.Fatalf("trial %d: flipped bit %d escaped both checksums", trial, bit)
	}
}

// TestCorruptedLinkStreamIntact runs a replicated echo transfer over a
// client link that corrupts one bit in 2%% of all frames. Every corrupted
// segment must be discarded at a checksum and recovered by retransmission;
// the application-observed stream stays byte-exact.
func TestCorruptedLinkStreamIntact(t *testing.T) {
	corrupt := fault.Impairment{Link: fault.LinkClientLink, Models: []fault.Spec{fault.Corrupt(0.02)}}
	if impairedEcho(t, 128*1024, corrupt).Corrupted == 0 {
		t.Error("no corruption was actually injected")
	}
}

// TestCorruptedServerLANStreamIntact corrupts frames on the server LAN,
// where the secondary snoops promiscuously: a corrupted snooped segment is
// translated like any other but must still die at the secondary TCP's
// checksum verification, never corrupting replica state visible to the
// client.
func TestCorruptedServerLANStreamIntact(t *testing.T) {
	corrupt := fault.Impairment{Link: fault.LinkServerLAN, Models: []fault.Spec{fault.Corrupt(0.01)}}
	if impairedEcho(t, 128*1024, corrupt).Corrupted == 0 {
		t.Error("no corruption was actually injected")
	}
}

// wireSegment identifies a TCP segment as one host transmitted it.
type wireSegment struct {
	src, dst     ipv4.Addr
	sport, dport uint16
	seq          tcp.Seq
	n            int
}

// countGROMerges taps every host of sc and counts the segments delivered up
// a stack with a valid checksum that no host transmitted in that form: a
// valid segment is a faithful copy of a transmitted one unless batched
// ingress merged two.
func countGROMerges(sc *tcpfailover.Scenario, merges *int) {
	sent := make(map[wireSegment]bool)
	for _, h := range []*netstack.Host{sc.Client, sc.Router, sc.Primary, sc.Secondary} {
		h.AddPacketTap(func(dir string, hdr ipv4.Header, payload []byte) {
			if hdr.Protocol != ipv4.ProtoTCP || !tcp.RawSane(payload) {
				return
			}
			k := wireSegment{hdr.Src, hdr.Dst, tcp.RawSrcPort(payload), tcp.RawDstPort(payload),
				tcp.RawSeq(payload), len(payload)}
			switch {
			case dir == "tx":
				sent[k] = true
			case !sent[k] && tcp.ComputeChecksum(hdr.Src, hdr.Dst, payload) == 0:
				*merges++
			}
		})
	}
}

// TestCorruptedLinkStreamIntactUnderBatching is the corrupted-link property
// with batched ingress on (NAPIBudget 8, as E8 and conn-scale run). A GRO
// merge writes a fresh checksum over the merged bytes, so it may only merge
// segments whose own checksums verify: otherwise a frame the injector
// flipped a bit in reaches the application as a valid segment.
func TestCorruptedLinkStreamIntactUnderBatching(t *testing.T) {
	for _, link := range []fault.LinkID{fault.LinkClientLink, fault.LinkServerLAN} {
		var corrupted int64
		var merges, bad int
		for seed := int64(1); seed <= 20; seed++ {
			opts := tcpfailover.LANOptions()
			opts.Seed = seed
			opts.HostProfile.NAPIBudget = 8
			opts.Faults = &fault.Plan{Impairments: []fault.Impairment{
				{Link: link, Models: []fault.Spec{fault.Corrupt(0.05)}},
			}}
			sc := newScenario(t, opts, echoServer)
			countGROMerges(sc, &merges)
			ec := startEchoClient(t, sc, 256*1024)
			runUntil(t, sc, func() bool { return ec.closed }, 30*time.Minute)
			if ec.badAt >= 0 {
				bad++
				t.Logf("%s seed %d: echoed stream corrupted at offset %d, close error %v", link, seed, ec.badAt, ec.err)
			}
			corrupted += sc.Faults.Stats().Corrupted
		}
		if bad > 0 {
			t.Errorf("%s: %d of 20 streams delivered a corrupted byte", link, bad)
		}
		if corrupted == 0 {
			t.Errorf("%s: no corruption was actually injected", link)
		}
		if merges == 0 {
			t.Errorf("%s: no GRO merge happened; the test does not reach the merge path", link)
		}
		t.Logf("%s: %d frames corrupted, %d merges, %d of 20 streams bad", link, corrupted, merges, bad)
	}
}
