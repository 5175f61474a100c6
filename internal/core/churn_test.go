package core

import (
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// Flow-table growth under SYN-flood churn: under the default cap, far above
// the flood (the …Unbounded tests), the tables track every spoofed tuple
// and evict nothing; under a small cap the live entry count stays at the
// bound, the overflow shows up in the eviction counters, and LRU order
// protects the entry that keeps seeing traffic.

// churnSYN pushes a client SYN from a distinct spoofed (addr, port) tuple
// through the primary bridge's inbound hook.
func churnSYN(f *priFixture, i int) {
	src := ipv4.AddrFrom4(10, 9, byte(i>>8), byte(i))
	seg := &tcp.Segment{SrcPort: uint16(20000 + i), DstPort: 80, Seq: tcp.Seq(i),
		Flags: tcp.FlagSYN, Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)}}
	raw := tcp.Marshal(src, f.aP, seg)
	f.b.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: f.aP}, raw)
}

func TestPrimaryBridgeChurnUnbounded(t *testing.T) {
	f := newPriFixture(t)
	for i := 0; i < propTrials; i++ {
		churnSYN(f, i)
	}
	if got := f.b.Conns(); got != propTrials {
		t.Errorf("bridge tracks %d conns, want %d", got, propTrials)
	}
	if ev := f.b.Stats().ConnsEvicted; ev != 0 {
		t.Errorf("bridge evicted %d under a cap of %d", ev, defaultMaxFlows)
	}
}

func TestPrimaryBridgeChurnBounded(t *testing.T) {
	const cap = 64
	f := newPriFixtureCap(t, cap)
	// A legitimate connection established before the flood…
	f.establishForAttack(t)
	for i := 0; i < propTrials; i++ {
		churnSYN(f, i)
		// …that keeps carrying traffic while the flood churns, so the LRU
		// must keep it fresh.
		if i%16 == 0 {
			f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1,
				Flags: tcp.FlagACK, Window: 65535})
		}
	}
	if got := f.b.Conns(); got != cap {
		t.Errorf("bounded bridge tracks %d conns, want %d", got, cap)
	}
	wantEv := int64(propTrials + 1 - cap)
	if ev := f.b.Stats().ConnsEvicted; ev != wantEv {
		t.Errorf("evictions = %d, want %d", ev, wantEv)
	}
	// Slot reuse: the flood pushed 1000 records through a 64-entry arena, so
	// evicted slots must be recycled — the arena's high-water mark stays at
	// the LRU bound (+1 for the insert-then-evict window), not the churn.
	if live := f.b.slots.Len(); live != cap {
		t.Errorf("pconn arena holds %d live slots, want %d", live, cap)
	}
	if grew := f.b.slots.Cap(); grew > cap+1 {
		t.Errorf("pconn arena grew to %d slots under churn, want <= %d (evicted slots not reused)",
			grew, cap+1)
	}
	// The legitimate connection survived the entire flood.
	f.sent = nil
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1,
		Flags: tcp.FlagACK, Window: 65535})
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("live")})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000, Payload: []byte("live")})
	if len(f.sent) == 0 || string(f.sent[len(f.sent)-1].seg.Payload) != "live" {
		t.Errorf("legitimate connection lost to the flood (emitted %d segments)", len(f.sent))
	}
}

// snoopSYN pushes a spoofed client SYN through the secondary bridge's
// promiscuous snoop path.
func snoopSYN(t *testing.T, f *secFixture, i int) {
	t.Helper()
	src := ipv4.AddrFrom4(10, 9, byte(i>>8), byte(i))
	seg := &tcp.Segment{SrcPort: uint16(20000 + i), DstPort: 80, Seq: tcp.Seq(i),
		Flags: tcp.FlagSYN, Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)}}
	raw := tcp.Marshal(src, f.aP, seg)
	f.callInbound(t, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: f.aP}, raw)
}

func TestSecondaryBridgeChurnUnbounded(t *testing.T) {
	f := newSecFixture(t)
	for i := 0; i < propTrials; i++ {
		snoopSYN(t, f, i)
	}
	if got := f.b.Flows(); got != propTrials {
		t.Errorf("flow cache holds %d entries, want %d", got, propTrials)
	}
	if ev := f.b.Stats().FlowsEvicted; ev != 0 {
		t.Errorf("cache evicted %d under a cap of %d", ev, defaultMaxFlows)
	}
}

func TestSecondaryBridgeChurnBounded(t *testing.T) {
	const cap = 64
	f := newSecFixture(t)
	f.b = NewSecondaryBridge(f.host, 0, f.aP, f.aS, f.sel, cap)
	// The legitimate client's flow, refreshed throughout the flood.
	legit := &tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: 100, Flags: tcp.FlagACK, Window: 65535}
	legitRaw := tcp.Marshal(f.aC, f.aP, legit)
	legitHdr := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}
	f.callInbound(t, legitHdr, append([]byte(nil), legitRaw...))
	for i := 0; i < propTrials; i++ {
		snoopSYN(t, f, i)
		if i%16 == 0 {
			f.callInbound(t, legitHdr, append([]byte(nil), legitRaw...))
		}
	}
	if got := f.b.Flows(); got != cap {
		t.Errorf("bounded flow cache holds %d entries, want %d", got, cap)
	}
	wantEv := int64(propTrials + 1 - cap)
	if ev := f.b.Stats().FlowsEvicted; ev != wantEv {
		t.Errorf("evictions = %d, want %d", ev, wantEv)
	}
	// Slot reuse, as in the primary test: the arena must not grow past the
	// flow limit no matter how many flows churned through it.
	if live := f.b.fslots.Len(); live != cap {
		t.Errorf("sflow arena holds %d live slots, want %d", live, cap)
	}
	if grew := f.b.fslots.Cap(); grew > cap+1 {
		t.Errorf("sflow arena grew to %d slots under churn, want <= %d (evicted slots not reused)",
			grew, cap+1)
	}
	// The refreshed flow must still be resident: snooping it again must not
	// evict anything further.
	before := f.b.Stats().FlowsEvicted
	verdict, _, _ := f.callInbound(t, legitHdr, append([]byte(nil), legitRaw...))
	if verdict != netstack.VerdictDeliver {
		t.Errorf("legitimate flow no longer snooped (verdict %v)", verdict)
	}
	if f.b.Stats().FlowsEvicted != before {
		t.Errorf("refreshing the legitimate flow caused an eviction")
	}
}
