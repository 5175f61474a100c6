package arp_test

import (
	"testing"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
)

// FuzzARPAnnounce feeds attacker-crafted ARP bytes — malformed, truncated,
// or well-formed forged announces — straight into a filtered module's
// receive path. Two invariants must hold for every input: the handler
// never panics, and a module protected by AuthorizedBindings never caches
// an unauthorized MAC for a protected address, no matter how the announce
// is encoded.
func FuzzARPAnnounce(f *testing.F) {
	rogueMAC := ethernet.MAC{2, 0, 0, 0, 0, 0xee}
	// A forged gratuitous announce, a truncated packet, and a reply variant.
	f.Add(arp.Marshal(arp.Packet{Op: arp.OpRequest, SenderMAC: rogueMAC, SenderIP: ipA, TargetIP: ipA}))
	f.Add(arp.Marshal(arp.Packet{Op: arp.OpReply, SenderMAC: rogueMAC, SenderIP: ipA, TargetMAC: macB, TargetIP: ipB}))
	f.Add([]byte{0, 1, 8, 0, 6, 4, 0, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sched := sim.New(1)
		seg := ethernet.NewSegment(sched, ethernet.Config{})
		victim := newStation(sched, seg, macB, ipB, 0)
		victim.mod.SetBindingFilter(arp.AuthorizedBindings(
			map[ipv4.Addr][]ethernet.MAC{ipA: {macA}, ipB: {macB}}))
		victim.mod.Seed(ipA, macA)

		victim.mod.HandleFrame(ethernet.Frame{
			Src: rogueMAC, Dst: ethernet.Broadcast, Type: ethernet.TypeARP,
			Payload: append([]byte(nil), data...),
		})
		if err := sched.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got, ok := victim.mod.Lookup(ipA); ok && got != macA {
			t.Fatalf("filtered module rebound %v to %v", ipA, got)
		}
	})
}
