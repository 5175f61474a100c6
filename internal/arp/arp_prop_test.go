package arp_test

import (
	"testing"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
)

// Property test for the ARP binding filter: 1000 seeded trials, each a
// forged gratuitous announce claiming the victim's address for a random
// rogue MAC. Without the filter every announce rebinds the victim's cache
// entry (the gratuitous-ARP takeover that makes the paper's failover work
// is equally available to an attacker); with AuthorizedBindings installed
// every rogue binding is refused and the cache keeps the true MAC.
func TestPropARPBindingFilter(t *testing.T) {
	const trials = 1000
	for _, tc := range []struct {
		name   string
		filter bool
	}{
		{"off-attack-succeeds", false},
		{"on-attack-defeated", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.New(1)
			seg := ethernet.NewSegment(sched, ethernet.Config{})
			victim := newStation(sched, seg, macB, ipB, 0)
			if tc.filter {
				victim.mod.SetBindingFilter(arp.AuthorizedBindings(
					map[ipv4.Addr][]ethernet.MAC{ipA: {macA}, ipB: {macB}}))
			}
			victim.mod.Seed(ipA, macA)
			rogue := seg.Attach(ethernet.MAC{2, 0, 0, 0, 0, 0xee})
			rogue.SetHandler(func(f ethernet.Frame) {
				if f.Buf != nil {
					f.Buf.Release()
				}
			})

			rng := fault.NewRand(0xa49).Split("arp")
			hijacked := 0
			for i := 0; i < trials; i++ {
				mac := ethernet.MAC{2, 1, byte(rng.Uint64()), byte(rng.Uint64()), byte(rng.Uint64()), byte(rng.Uint64())}
				announce := arp.Marshal(arp.Packet{
					Op: arp.OpRequest, SenderMAC: mac, SenderIP: ipA,
					TargetMAC: ethernet.MAC{}, TargetIP: ipA,
				})
				if err := rogue.Send(ethernet.Frame{
					Dst: ethernet.Broadcast, Type: ethernet.TypeARP, Payload: announce,
				}); err != nil {
					t.Fatal(err)
				}
				if err := sched.RunFor(10 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				if got, ok := victim.mod.Lookup(ipA); ok && got == mac {
					hijacked++
					victim.mod.Seed(ipA, macA) // restore for the next trial
				} else if ok && got != macA {
					t.Fatalf("trial %d: cache bound to a third MAC %v", i, got)
				}
			}
			if !tc.filter {
				if hijacked != trials {
					t.Errorf("unfiltered: %d/%d rogue announces rebound the cache, want all", hijacked, trials)
				}
				if r := victim.mod.RejectedBindings(); r != 0 {
					t.Errorf("unfiltered module rejected %d bindings", r)
				}
			} else {
				if hijacked != 0 {
					t.Errorf("filtered: %d/%d rogue announces rebound the cache", hijacked, trials)
				}
				if r := victim.mod.RejectedBindings(); r != trials {
					t.Errorf("rejected = %d, want %d", r, trials)
				}
			}
		})
	}
}
