package arp_test

import (
	"testing"
	"time"

	"tcpfailover/internal/arp"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/sim"
)

type station struct {
	nic *ethernet.NIC
	mod *arp.Module
	ip  ipv4.Addr
}

func newStation(sched *sim.Scheduler, seg *ethernet.Segment, mac ethernet.MAC, ip ipv4.Addr, delay time.Duration) *station {
	st := &station{ip: ip}
	st.nic = seg.Attach(mac)
	st.mod = arp.New(sched, st.nic, delay,
		func(a ipv4.Addr) bool { return a == st.ip },
		func() ipv4.Addr { return st.ip })
	st.nic.SetHandler(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			st.mod.HandleFrame(f)
		}
	})
	return st
}

var (
	ipA  = ipv4.MustParseAddr("10.0.0.1")
	ipB  = ipv4.MustParseAddr("10.0.0.2")
	macA = ethernet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = ethernet.MAC{2, 0, 0, 0, 0, 0xb}
)

func TestPacketRoundTrip(t *testing.T) {
	p := arp.Packet{Op: arp.OpRequest, SenderMAC: macA, SenderIP: ipA, TargetMAC: macB, TargetIP: ipB}
	got, err := arp.Unmarshal(arp.Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("round trip: %+v != %+v", got, p)
	}
	if _, err := arp.Unmarshal(make([]byte, 10)); err == nil {
		t.Error("truncated packet accepted")
	}
}

func TestResolveViaRequestReply(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, 0)
	newStation(sched, seg, macB, ipB, 0)

	var gotMAC ethernet.MAC
	var gotErr error
	a.mod.Resolve(ipB, func(m ethernet.MAC, err error) { gotMAC, gotErr = m, err })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatalf("resolve: %v", gotErr)
	}
	if gotMAC != macB {
		t.Errorf("resolved %v, want %v", gotMAC, macB)
	}
	// Second resolve hits the cache synchronously.
	hit := false
	a.mod.Resolve(ipB, func(m ethernet.MAC, err error) { hit = m == macB && err == nil })
	if !hit {
		t.Error("cache hit did not resolve synchronously")
	}
}

func TestResolveCoalescesWaiters(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, 0)
	b := newStation(sched, seg, macB, ipB, 0)
	_ = b

	done := 0
	for range 3 {
		a.mod.Resolve(ipB, func(m ethernet.MAC, err error) {
			if err == nil && m == macB {
				done++
			}
		})
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Errorf("%d waiters completed, want 3", done)
	}
}

func TestResolveTimesOutAfterRetries(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, 0)

	var gotErr error
	a.mod.Resolve(ipB, func(m ethernet.MAC, err error) { gotErr = err })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("resolution of absent station succeeded")
	}
	if sched.Now() < 3*time.Second {
		t.Errorf("gave up at %v, want after three 1 s timeouts", sched.Now())
	}
}

// TestGratuitousARPRebindsAddress is the paper's IP takeover: a gratuitous
// announcement moves an address to a new MAC in every station's cache.
func TestGratuitousARPRebindsAddress(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, 0)
	newStation(sched, seg, macB, ipB, 0)
	macS := ethernet.MAC{2, 0, 0, 0, 0, 0x5}
	s := newStation(sched, seg, macS, ipv4.MustParseAddr("10.0.0.3"), 0)

	a.mod.Seed(ipB, macB)
	if got, _ := a.mod.Lookup(ipB); got != macB {
		t.Fatal("seed failed")
	}
	// The takeover: station S claims ipB.
	s.ip = ipB
	if err := s.mod.Announce(ipB); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.mod.Lookup(ipB); !ok || got != macS {
		t.Errorf("after gratuitous ARP, %v -> %v (ok=%v), want %v", ipB, got, ok, macS)
	}
}

// TestProcessingDelayDefersUpdate models the router's ARP-table latency,
// part of the paper's takeover window T.
func TestProcessingDelayDefersUpdate(t *testing.T) {
	const delay = 5 * time.Millisecond
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, delay)
	b := newStation(sched, seg, macB, ipB, 0)

	if err := b.mod.Announce(ipB); err != nil {
		t.Fatal(err)
	}
	// Run just past frame delivery but before the processing delay.
	if err := sched.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.mod.Lookup(ipB); ok {
		t.Error("cache updated before the processing delay elapsed")
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.mod.Lookup(ipB); !ok || got != macB {
		t.Error("cache not updated after the processing delay")
	}
}

func TestEntryExpiry(t *testing.T) {
	sched := sim.New(1)
	seg := ethernet.NewSegment(sched, ethernet.Config{})
	a := newStation(sched, seg, macA, ipA, 0)
	a.mod.Seed(ipB, macB)
	if _, ok := a.mod.Lookup(ipB); !ok {
		t.Fatal("entry missing right after seed")
	}
	if err := sched.RunUntil(20*time.Minute - time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.mod.Lookup(ipB); !ok {
		t.Fatal("entry expired before its 20 min TTL")
	}
	if err := sched.RunUntil(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.mod.Lookup(ipB); ok {
		t.Error("entry still valid after its 20 min TTL")
	}
	a.mod.Flush()
}

// TestNoReplyToGratuitousForOwnAddress: a station must not answer a
// gratuitous ARP for an address it owns with a reply storm (gratuitous
// requests have sender == target), and the announcer repeats it once, 2 s
// later (RFC 5227), only if it still owns the address then; a crashed or
// fenced owner has given it up.
func TestNoReplyToGratuitousForOwnAddress(t *testing.T) {
	for _, keep := range []bool{true, false} {
		sched := sim.New(1)
		seg := ethernet.NewSegment(sched, ethernet.Config{})
		a := newStation(sched, seg, macA, ipA, 0)
		newStation(sched, seg, macB, ipB, 0)
		if err := a.mod.Announce(ipA); err != nil {
			t.Fatal(err)
		}
		want := int64(2)
		if !keep {
			a.ip, want = 0, 1
		}
		if err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		if got := seg.Stats().Frames; got != want || keep && sched.Now() < 2*time.Second {
			t.Errorf("owner keeps the address %v: %d frames on the wire by %v, want %d announcements and no replies", keep, got, sched.Now(), want)
		}
	}
}
