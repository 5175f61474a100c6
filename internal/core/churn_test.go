package core

import (
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
)

// Flow-table growth under SYN-flood churn: under the default cap, far above
// the flood, the primary's matcher tracks every spoofed tuple and evicts
// nothing; under a small cap the live entry count stays at the bound, the
// overflow shows up in the eviction counter, and LRU order protects the
// entry that keeps seeing traffic. The secondary keeps no flow table.

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

// TestSecondarySnoopKeepsNoState: the snoop path's verdict is the
// selector's, so a SYN flood of spoofed clients leaves nothing behind on the
// secondary. Each measured call snoops 1 000 sources no earlier call used —
// AllocsPerRun's warm-up call included — so per-flow state of any kind
// would allocate on every call.
func TestSecondarySnoopKeepsNoState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	const runs, perRun = 4, 1000
	f := newSecFixture(t)
	hdrs := make([]ipv4.Header, (runs+1)*perRun)
	raws := make([][]byte, len(hdrs))
	for i := range hdrs {
		src := ipv4.AddrFrom4(10, 9, byte(i>>8), byte(i))
		hdrs[i] = ipv4.Header{Protocol: ipv4.ProtoTCP, Src: src, Dst: f.aP}
		raws[i] = tcp.Marshal(src, f.aP, &tcp.Segment{SrcPort: uint16(20000 + i), DstPort: 80,
			Seq: tcp.Seq(i), Flags: tcp.FlagSYN, Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)}})
	}
	next, missed := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		for end := next + perRun; next < end; next++ {
			if v, _, _ := f.b.Inbound(0, hdrs[next], raws[next]); v != netstack.VerdictDeliver {
				missed++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("snooping %d new spoofed SYNs allocates %.1f times, want 0", perRun, allocs)
	}
	if got := f.b.Stats().SnoopedIn; missed != 0 || got != int64(len(hdrs)) {
		t.Errorf("snooped %d of %d SYNs (%d not delivered)", got, len(hdrs), missed)
	}
}
