package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Unit-level tests of the primary bridge: scripted segments are pushed
// through its hooks and the emitted client-bound segments are captured.

type priFixture struct {
	sched *sim.Scheduler
	host  *netstack.Host
	b     *PrimaryBridge
	aP    ipv4.Addr
	aS    ipv4.Addr
	aC    ipv4.Addr
	sent  []capturedSeg
}

type capturedSeg struct {
	dst ipv4.Addr
	seg *tcp.Segment
	raw []byte
}

func newPriFixture(t *testing.T) *priFixture {
	t.Helper()
	return newPriFixtureCap(t, 0)
}

// newPriFixtureCap builds the fixture with a bridge tracking at most maxFlows
// connections (zero: the default cap).
func newPriFixtureCap(t *testing.T, maxFlows int) *priFixture {
	t.Helper()
	f := &priFixture{
		sched: sim.New(1),
		aP:    ipv4.MustParseAddr("10.0.1.1"),
		aS:    ipv4.MustParseAddr("10.0.1.2"),
		aC:    ipv4.MustParseAddr("10.0.2.1"),
	}
	seg := ethernet.NewSegment(f.sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)
	f.host = netstack.NewHost(f.sched, "p", netstack.DefaultProfile())
	f.host.AttachIface(seg, ethernet.MAC{2, 0, 0, 0, 0, 1}, f.aP, prefix)
	sel := NewSelector()
	sel.EnableServerPort(80)
	f.b = NewPrimaryBridge(f.host, f.aP, f.aS, sel, maxFlows)
	// Capture emissions without touching the wire.
	f.b.SetEmitFunc(func(client ipv4.Addr, pkt *netbuf.Buffer) {
		raw := append([]byte(nil), pkt.Bytes()...)
		pkt.Release()
		s, err := tcp.Unmarshal(f.aP, client, raw, true)
		if err != nil {
			t.Fatalf("bridge emitted an invalid segment: %v", err)
		}
		f.sent = append(f.sent, capturedSeg{dst: client, seg: s, raw: raw})
	})
	return f
}

// fromPrimaryTCP pushes a segment as if the local TCP layer emitted it.
func (f *priFixture) fromPrimaryTCP(t *testing.T, seg *tcp.Segment) {
	t.Helper()
	seg.SrcPort, seg.DstPort = 80, 49152
	raw := tcp.Marshal(f.aP, f.aC, seg)
	if !f.b.Outbound(f.aP, f.aC, raw) {
		t.Fatalf("failover segment not consumed: %+v", seg)
	}
}

// divertedCopy is raw as the secondary bridge sends it — the
// original-destination option naming the client appended, sealed for the
// hop from S to P — copied out of the pooled buffer AppendOrigDstOption
// builds it in.
func (f *priFixture) divertedCopy(raw []byte) ([]byte, error) {
	pkt := netbuf.Get()
	defer pkt.Release()
	out, err := tcp.AppendOrigDstOption(pkt, raw, f.aC)
	if err != nil {
		return nil, err
	}
	tcp.SealChecksum(f.aS, f.aP, out)
	return append([]byte(nil), out...), nil
}

// fromSecondaryWire pushes a diverted segment as it would arrive from S.
func (f *priFixture) fromSecondaryWire(t *testing.T, seg *tcp.Segment) {
	t.Helper()
	seg.SrcPort, seg.DstPort = 80, 49152
	div, err := f.divertedCopy(tcp.Marshal(f.aS, f.aC, seg))
	if err != nil {
		t.Fatal(err)
	}
	verdict, _, _ := f.b.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aS, Dst: f.aP}, div)
	if verdict != netstack.VerdictDrop {
		t.Fatalf("diverted segment not consumed (verdict %v)", verdict)
	}
}

// fromClientWire pushes a client segment; returns the possibly patched
// payload that would be delivered to the local TCP layer.
func (f *priFixture) fromClientWire(t *testing.T, seg *tcp.Segment) []byte {
	t.Helper()
	seg.SrcPort, seg.DstPort = 49152, 80
	raw := tcp.Marshal(f.aC, f.aP, seg)
	verdict, _, np := f.b.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}, raw)
	if verdict == netstack.VerdictDrop {
		return nil
	}
	return np
}

const (
	clientISS = 1_000_000
	pISS      = 50_000_000
	sISS      = 90_000_000
)

// establish walks the fixture through a client-initiated handshake.
func (f *priFixture) establish(t *testing.T) { t.Helper(); f.establishAt(t, pISS, sISS) }

// establishAt is establish with the replicas' initial sequence numbers
// chosen by the caller.
func (f *priFixture) establishAt(t *testing.T, pISS, sISS tcp.Seq) {
	t.Helper()
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS, Flags: tcp.FlagSYN, Window: 65535,
		Options: []tcp.Option{tcp.MSSOption(1460)}})
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS, Ack: clientISS + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)}})
	if len(f.sent) != 0 {
		t.Fatalf("SYN-ACK not held while waiting for the secondary (sent %d)", len(f.sent))
	}
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS, Ack: clientISS + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 58000,
		Options: []tcp.Option{tcp.MSSOption(1452)}})
	if len(f.sent) != 1 {
		t.Fatalf("combined SYN-ACK count = %d, want 1", len(f.sent))
	}
}

func TestBridgeCombinedSynAck(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	syn := f.sent[0].seg
	if !syn.Flags.Has(tcp.FlagSYN | tcp.FlagACK) {
		t.Errorf("flags = %v", syn.Flags)
	}
	if syn.Seq != sISS {
		t.Errorf("combined SYN seq = %d, want the secondary's ISS %d", syn.Seq, sISS)
	}
	if syn.Ack != clientISS+1 {
		t.Errorf("ack = %d", syn.Ack)
	}
	if mss, _ := syn.MSS(); mss != 1452 {
		t.Errorf("MSS = %d, want min(1460,1452)", mss)
	}
	if syn.Window != 58000 {
		t.Errorf("window = %d, want min(60000,58000)", syn.Window)
	}
}

func TestBridgeFigure2Matching(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil

	// The primary's TCP produces 4 bytes in P-space; no emission until the
	// secondary's copy arrives.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("wxyz")})
	if len(f.sent) != 0 {
		t.Fatalf("primary data released without the secondary's copy")
	}
	// The secondary produces the same bytes, differently segmented: first
	// two, then the rest plus more that the primary has not produced yet.
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000, Payload: []byte("wx")})
	if len(f.sent) != 1 || string(f.sent[0].seg.Payload) != "wx" {
		t.Fatalf("first match: %+v", f.sent)
	}
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 3, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000, Payload: []byte("yzAB")})
	if len(f.sent) != 2 || string(f.sent[1].seg.Payload) != "yz" {
		t.Fatalf("second match: %+v", f.sent)
	}
	// The sequence numbers to the client are in the secondary's space.
	if f.sent[0].seg.Seq != sISS+1 || f.sent[1].seg.Seq != sISS+3 {
		t.Errorf("emitted seqs %d, %d", f.sent[0].seg.Seq, f.sent[1].seg.Seq)
	}
	// "AB" waits in the secondary queue for the primary's copy.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 5, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("AB")})
	if len(f.sent) != 3 || string(f.sent[2].seg.Payload) != "AB" {
		t.Fatalf("third match: %+v", f.sent)
	}
}

func TestBridgeMinAckAndWindow(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil

	// The primary acknowledges further than the secondary: the combined
	// minimum has not advanced, so the bridge must stay silent — this is
	// the guarantee that the client never sees data acknowledged before
	// both replicas hold it (requirement 2).
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 2921,
		Flags: tcp.FlagACK, Window: 50000})
	if len(f.sent) != 0 {
		t.Fatalf("bridge acked ahead of the secondary: %+v", f.sent)
	}
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1461,
		Flags: tcp.FlagACK, Window: 40000})
	if len(f.sent) != 1 {
		t.Fatalf("no empty ack after combined minimum advanced")
	}
	out := f.sent[0].seg
	if out.Ack != clientISS+1461 {
		t.Errorf("ack = %d, want min(2921,1461)+base = %d", out.Ack, clientISS+1461)
	}
	if out.Window != 40000 {
		t.Errorf("window = %d, want min(50000,40000)", out.Window)
	}
}

func TestBridgeInboundAckTranslation(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)

	// The client acknowledges in the secondary's space; the local TCP layer
	// must receive it in the primary's space (+Delta).
	delivered := f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 101,
		Flags: tcp.FlagACK, Window: 65535})
	if delivered == nil {
		t.Fatal("client segment consumed")
	}
	if got := tcp.RawAck(delivered); got != tcp.Seq(pISS+101) {
		t.Errorf("translated ack = %d, want %d", got, pISS+101)
	}
	if tcp.ComputeChecksum(f.aC, f.aP, delivered) != 0 {
		t.Error("checksum invalid after the incremental ack patch")
	}
}

func TestBridgeRetransmissionForwardedImmediately(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil
	// Release four bytes.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 60000, Payload: []byte("data")})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000, Payload: []byte("data")})
	if len(f.sent) != 1 {
		t.Fatal("setup release failed")
	}
	f.sent = nil
	// The primary's TCP retransmits: the bridge holds only one copy, so it
	// must send immediately without waiting for the secondary (section 4).
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 60000, Payload: []byte("data")})
	if len(f.sent) != 1 || string(f.sent[0].seg.Payload) != "data" {
		t.Fatalf("retransmission not forwarded: %+v", f.sent)
	}
	if f.sent[0].seg.Seq != sISS+1 {
		t.Errorf("retransmission seq = %d, want translated %d", f.sent[0].seg.Seq, sISS+1)
	}
	if f.b.Stats().RetransmissionsForwarded != 1 {
		t.Errorf("RetransmissionsForwarded = %d", f.b.Stats().RetransmissionsForwarded)
	}
}

// TestReleaseSealsFromVerifiedSum: a release of exactly the bytes of one
// diverted segment is sealed from the payload sum verifyDiverted took, not
// by re-summing the queue, so a byte damaged in both queues while it waits
// there fails the client's checksum instead of leaving with a fresh, valid
// one. Damage to one queue's copy is a divergence and releases nothing. Any
// other release is summed in full and must verify.
func TestReleaseSealsFromVerifiedSum(t *testing.T) {
	for _, tc := range []struct {
		name          string
		primaryFirst  bool
		fromSecondary []string // the diverted segments carrying "hello"
		flip          int      // queues whose copy of byte 1 is flipped before the match: the secondary's, then the primary's
		want          string   // "good", "bad" (the client's checksum fails) or "reset"
	}{
		{"secondary ahead, byte flipped in both queues", false, []string{"hello"}, 2, "bad"},
		{"secondary ahead, byte flipped in the secondary's queue", false, []string{"hello"}, 1, "reset"},
		{"secondary ahead", false, []string{"hello"}, 0, "good"},
		{"primary ahead", true, []string{"hello"}, 0, "good"},
		{"two diverted segments, one release", false, []string{"he", "llo"}, 0, "good"},
	} {
		f := newPriFixture(t)
		f.establish(t)
		var out [][]byte
		f.b.SetEmitFunc(func(_ ipv4.Addr, pkt *netbuf.Buffer) {
			out = append(out, append([]byte(nil), pkt.Bytes()...))
			pkt.Release()
		})
		fromPrimary := func() {
			f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("hello")})
		}
		if tc.primaryFirst {
			fromPrimary()
		}
		off := 0
		for _, p := range tc.fromSecondary {
			f.fromSecondaryWire(t, &tcp.Segment{Seq: tcp.Seq(sISS + 1).Add(off), Ack: clientISS + 1,
				Flags: tcp.FlagACK | tcp.FlagPSH, Window: 58000, Payload: []byte(p)})
			off += len(p)
		}
		switch c := f.b.lookup(MakeTupleKey(f.aC, 49152, 80)); {
		case tc.flip > 0:
			// The primary's copy joins its queue without a match attempt, so
			// the flips land in the rings' own storage before the compare.
			f.b.ingestServerSegment(c, &c.p, sISS+1, []byte("hello"), tcp.FlagACK|tcp.FlagPSH)
			for _, q := range []*tcp.ByteRing{&c.s.q, &c.p.q}[:tc.flip] {
				q.Peek(2, &f.b.wrapS)[1] ^= 0x20
			}
			f.b.pump(c)
		case !tc.primaryFirst:
			fromPrimary()
		}
		got := fmt.Sprintf("%d client segments", len(out))
		switch {
		case len(out) != 1:
		case tcp.RawFlags(out[0]) == tcp.FlagRST && f.b.Stats().Divergences == 1 && f.b.Conns() == 0:
			got = "reset"
		case len(tcp.RawPayload(out[0])) == 5 && tcp.ComputeChecksum(f.aP, f.aC, out[0]) == 0:
			got = "good"
		case len(tcp.RawPayload(out[0])) == 5:
			got = "bad"
		}
		if got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBridgeReplicaBytesMustMatch: replicas that send different bytes at
// the release point end the connection; the client gets a reset there
// instead of either replica's bytes, and the divergence is counted.
func TestBridgeReplicaBytesMustMatch(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 60000, Payload: []byte("AAAA")})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000, Payload: []byte("BBBB")})
	if len(f.sent) != 1 || f.sent[0].seg.Flags != tcp.FlagRST || f.sent[0].seg.Seq != sISS+1 || f.b.Stats().Divergences != 1 {
		t.Errorf("client got %d segments (%+v), %d divergences; want one RST at the release point, 1", len(f.sent), f.sent, f.b.Stats().Divergences)
	}
}

// TestPrimaryDropsForgedOrigDstShapes: the demultiplexer takes only the
// block AppendOrigDstOption writes — NOP, NOP, kind, length 6, address, on
// a word boundary, ending at the data offset. A checksum-valid segment from
// the secondary's address carrying the option in any other shape used to be
// stripped into a different segment (the first shape below into two pad
// bytes ahead of "hello", with a checksum that still verified) and queued
// as the secondary's output; it must be dropped and counted instead.
func TestPrimaryDropsForgedOrigDstShapes(t *testing.T) {
	nop := tcp.Option{Kind: tcp.OptNOP}
	for _, tc := range []struct {
		name string
		opts func(orig tcp.Option) []tcp.Option
	}{
		{"block without pads", func(o tcp.Option) []tcp.Option { return []tcp.Option{o, nop, nop} }},
		{"one pad each side", func(o tcp.Option) []tcp.Option { return []tcp.Option{nop, o, nop} }},
		{"unaligned in 12 bytes", func(o tcp.Option) []tcp.Option { return []tcp.Option{nop, nop, nop, o, nop, nop, nop} }},
		{"doubled block", func(o tcp.Option) []tcp.Option { return []tcp.Option{nop, nop, o, nop, nop, o} }},
	} {
		f := newPriFixture(t)
		f.establish(t)
		raw := tcp.Marshal(f.aS, f.aP, &tcp.Segment{SrcPort: 80, DstPort: 49152,
			Seq: sISS + 1, Ack: clientISS + 1, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 58000,
			Options: tc.opts(tcp.OrigDstOption(f.aC)), Payload: []byte("hello")})
		before := f.b.Stats().MalformedDrops
		v, _, _ := f.b.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aS, Dst: f.aP}, raw)
		if v != netstack.VerdictDrop {
			t.Errorf("%s: verdict %v, want drop", tc.name, v)
		}
		if got := f.b.Stats().MalformedDrops - before; got != 1 {
			t.Errorf("%s: %d malformed drops counted, want 1", tc.name, got)
		}
		f.checkQueueGauge(t, 0)
	}
}

func TestBridgeDegradedPassThrough(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil
	// Queue primary bytes the secondary never confirms, then fail it.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("pending")})
	f.b.HandleSecondaryFailure()
	if !f.b.Degraded() {
		t.Fatal("not degraded")
	}
	// Step 1: the queue is flushed to the client.
	if len(f.sent) != 1 || string(f.sent[0].seg.Payload) != "pending" {
		t.Fatalf("queue not flushed: %+v", f.sent)
	}
	if f.sent[0].seg.Seq != sISS+1 {
		t.Errorf("flush seq = %d, want translated space", f.sent[0].seg.Seq)
	}
	f.sent = nil
	// Step 3: subsequent segments pass straight through, still translated.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 8, Ack: clientISS + 9,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("more")})
	if len(f.sent) != 1 {
		t.Fatalf("degraded segment not forwarded")
	}
	out := f.sent[0]
	if out.seg.Seq != sISS+8 {
		t.Errorf("degraded seq = %d, want %d (Delta still subtracted)", out.seg.Seq, sISS+8)
	}
	if out.seg.Ack != clientISS+9 {
		t.Errorf("degraded ack = %d, want the primary's own %d", out.seg.Ack, clientISS+9)
	}
	if !bytes.Equal(out.seg.Payload, []byte("more")) {
		t.Error("payload damaged in degraded pass-through")
	}
}

// TestSecondaryFailureFlushDoesNotAllocate: section 6 recovery drains the
// primary output queue through pump's emit path — the segment built in the
// bridge's scratch, the payload read in place from the queue's ring — so
// flushing 64 KB in the middle of a failover allocates nothing.
func TestSecondaryFailureFlushDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of returns under the race detector, and each one is an allocation")
	}
	const mss, segs = 1460, 44 // 64 240 bytes queued
	f := newPriFixture(t)
	f.establish(t)
	stream := make([]byte, mss*segs)
	for i := range stream {
		stream[i] = byte(i * 31)
	}
	c := f.b.lookup(MakeTupleKey(f.aC, 49152, 80))
	var base tcp.Seq
	emitted, bad := 0, false
	f.b.SetEmitFunc(func(client ipv4.Addr, pkt *netbuf.Buffer) {
		raw := pkt.Bytes()
		if p := tcp.RawPayload(raw); len(p) > 0 {
			off := tcp.RawSeq(raw).Diff(base)
			bad = bad || off != emitted || !bytes.Equal(p, stream[off:off+len(p)])
			emitted += len(p)
		}
		pkt.Release()
	})
	flush := func() {
		// Re-arm: the bridge degrades once, the test wants to see it again.
		f.b.degraded = false
		base, emitted = c.sndMax, 0
		for off := 0; off < len(stream); off += mss {
			f.b.ingestServerSegment(c, &c.p, base.Add(off), stream[off:off+mss], tcp.FlagACK)
		}
		f.b.HandleSecondaryFailure()
		if bad || emitted != len(stream) || c.p.q.Len() != 0 || c.p.q.Cap() != 0 {
			t.Fatalf("flush released %d of %d bytes (corrupt=%v), %d left queued, ring kept=%v",
				emitted, len(stream), bad, c.p.q.Len(), c.p.q.Cap() != 0)
		}
	}
	if allocs := testing.AllocsPerRun(20, flush); allocs > 0 {
		t.Errorf("secondary-failure flush of %d segments allocates %.1f times, want 0", segs, allocs)
	}
}

// TestBridgeHandshakeAllocs: the bridge reads a replica's SYN in place — ISS,
// window, MSS option — so a client-initiated handshake (client SYN, the
// primary's SYN-ACK, the secondary's diverted SYN-ACK, the combined SYN-ACK
// out) allocates nothing. It was 6 allocations while each replica's SYN was
// parsed into a Segment with its option slice. The record the handshake
// fills, two replica records and all, stays the size it is: 184 bytes,
// from 216 when each queue's out-of-order list went behind a pointer.
func TestBridgeHandshakeAllocs(t *testing.T) {
	if got := unsafe.Sizeof(pconn{}); got > 184 {
		t.Errorf("pconn is %d bytes, want <= 184", got)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a share of returns under the race detector, and each one is an allocation")
	}
	f := newPriFixture(t)
	combined := 0
	f.b.SetEmitFunc(func(client ipv4.Addr, pkt *netbuf.Buffer) {
		if tcp.RawFlags(pkt.Bytes()).Has(tcp.FlagSYN | tcp.FlagACK) {
			combined++
		}
		pkt.Release()
	})
	mssOpt := []tcp.Option{tcp.MSSOption(1460)}
	clientSyn := tcp.Marshal(f.aC, f.aP, &tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: clientISS,
		Flags: tcp.FlagSYN, Window: 65535, Options: mssOpt})
	clientRst := tcp.Marshal(f.aC, f.aP, &tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: clientISS + 1,
		Flags: tcp.FlagRST})
	pSynAck := tcp.Marshal(f.aP, f.aC, &tcp.Segment{SrcPort: 80, DstPort: 49152, Seq: pISS, Ack: clientISS + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000, Options: mssOpt})
	sSynAck, err := f.divertedCopy(tcp.Marshal(f.aS, f.aC, &tcp.Segment{SrcPort: 80, DstPort: 49152, Seq: sISS,
		Ack: clientISS + 1, Flags: tcp.FlagSYN | tcp.FlagACK, Window: 58000, Options: mssOpt}))
	if err != nil {
		t.Fatal(err)
	}
	// The hooks patch and strip in place: every handshake gets its own copy.
	scratch := make([]byte, len(sSynAck))
	fromClient := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}
	fromSecondary := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aS, Dst: f.aP}
	handshake := func() {
		f.b.Inbound(0, fromClient, scratch[:copy(scratch, clientSyn)])
		f.b.Outbound(f.aP, f.aC, scratch[:copy(scratch, pSynAck)])
		f.b.Inbound(0, fromSecondary, scratch[:copy(scratch, sSynAck)])
		// The client resets, so the next handshake starts from no record.
		f.b.Inbound(0, fromClient, scratch[:copy(scratch, clientRst)])
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, handshake)
	if combined != runs+1 || f.b.Conns() != 0 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d combined SYN-ACKs over %d handshakes, %d records left", combined, runs+1, f.b.Conns())
	}
	if allocs > 0 {
		t.Errorf("a handshake through the bridge allocates %.1f times, want 0", allocs)
	}
}

// TestBridgeServerInitiatedEstablishment covers section 7.2: both replicas
// dial an unreplicated server T; the bridge merges their SYNs into one.
func TestBridgeServerInitiatedEstablishment(t *testing.T) {
	f := newPriFixture(t)
	f.b.sel.EnablePeerPort(49152) // "T"'s well-known port, for this test

	// The primary's TCP dials first: a bare SYN, held by the bridge.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS, Flags: tcp.FlagSYN,
		Window: 60000, Options: []tcp.Option{tcp.MSSOption(1460)}})
	if len(f.sent) != 0 {
		t.Fatal("primary SYN not held")
	}
	// The secondary's diverted SYN arrives; the combined SYN goes to T.
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS, Flags: tcp.FlagSYN,
		Window: 58000, Options: []tcp.Option{tcp.MSSOption(1452)}})
	if len(f.sent) != 1 {
		t.Fatalf("combined SYN count = %d", len(f.sent))
	}
	syn := f.sent[0].seg
	if syn.Flags.Has(tcp.FlagACK) {
		t.Error("server-initiated combined SYN must not carry ACK")
	}
	if syn.Seq != sISS {
		t.Errorf("seq = %d, want the secondary's ISS", syn.Seq)
	}
	if mss, _ := syn.MSS(); mss != 1452 {
		t.Errorf("MSS = %d, want the minimum", mss)
	}

	// T's SYN-ACK (a "client" segment here) gets its ack translated for
	// the local TCP layer.
	delivered := f.fromClientWire(t, &tcp.Segment{Seq: clientISS, Ack: sISS + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 65535,
		Options: []tcp.Option{tcp.MSSOption(1460)}})
	if delivered == nil {
		t.Fatal("T's SYN-ACK consumed")
	}
	if got := tcp.RawAck(delivered); got != tcp.Seq(pISS+1) {
		t.Errorf("translated ack = %d, want %d", got, pISS+1)
	}

	// The replicas' final handshake ACKs: the first advances the combined
	// minimum and completes T's handshake.
	f.sent = nil
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 60000})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK, Window: 58000})
	if len(f.sent) != 1 {
		t.Fatalf("final ACK emissions = %d, want exactly 1", len(f.sent))
	}
	if f.sent[0].seg.Ack != clientISS+1 {
		t.Errorf("final ack = %d", f.sent[0].seg.Ack)
	}
}

// TestBridgeRSTForwarding covers both directions of reset propagation.
func TestBridgeRSTForwarding(t *testing.T) {
	t.Run("from_primary_translated", func(t *testing.T) {
		f := newPriFixture(t)
		f.establish(t)
		f.sent = nil
		f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
			Flags: tcp.FlagRST | tcp.FlagACK})
		if len(f.sent) != 1 || !f.sent[0].seg.Flags.Has(tcp.FlagRST) {
			t.Fatalf("RST not forwarded: %+v", f.sent)
		}
		if f.sent[0].seg.Seq != sISS+1 {
			t.Errorf("RST seq = %d, want translated %d", f.sent[0].seg.Seq, sISS+1)
		}
		if f.b.Conns() != 0 {
			t.Error("connection record survived the reset")
		}
	})
	t.Run("from_secondary_as_is", func(t *testing.T) {
		f := newPriFixture(t)
		f.establish(t)
		f.sent = nil
		f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
			Flags: tcp.FlagRST | tcp.FlagACK})
		if len(f.sent) != 1 || !f.sent[0].seg.Flags.Has(tcp.FlagRST) {
			t.Fatalf("RST not forwarded: %+v", f.sent)
		}
		if f.sent[0].seg.Seq != sISS+1 {
			t.Errorf("RST seq = %d (the secondary's space needs no translation)", f.sent[0].seg.Seq)
		}
	})
	t.Run("syn_refusal_passthrough", func(t *testing.T) {
		// A refusal RST (answering a SYN) arrives before Delta is known;
		// its ACK-derived fields are valid in any space.
		f := newPriFixture(t)
		f.fromClientWire(t, &tcp.Segment{Seq: clientISS, Flags: tcp.FlagSYN, Window: 65535})
		f.fromPrimaryTCP(t, &tcp.Segment{Seq: 0, Ack: clientISS + 1,
			Flags: tcp.FlagRST | tcp.FlagACK})
		if len(f.sent) != 1 || !f.sent[0].seg.Flags.Has(tcp.FlagRST) {
			t.Fatalf("refusal RST not forwarded: %+v", f.sent)
		}
	})
}

// TestClientControlNeedsValidSum: a client's RST, and its ACK of the
// servers' FIN, change the bridge's record only when the checksum verifies.
// Both replicas' TCP layers discard a segment a wire error corrupted, so a
// bad-sum RST keeps the record and a bad-sum ACK past the FIN leaves it to
// the GC; the valid forms still act.
func TestClientControlNeedsValidSum(t *testing.T) {
	rst := tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1, Flags: tcp.FlagACK | tcp.FlagRST}
	finAck := tcp.Segment{Seq: clientISS + 2, Ack: sISS + 2, Flags: tcp.FlagACK, Window: 65535}
	for _, tc := range []struct {
		name    string
		closing bool // every FIN but the servers' is acknowledged: the record waits for finAck
		seg     tcp.Segment
		bad     bool
		want    int // records left
	}{
		{"RST", false, rst, false, 0},
		{"bad-sum RST", false, rst, true, 1},
		{"ACK past the FIN", true, finAck, false, 0},
		{"bad-sum ACK past the FIN", true, finAck, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newPriFixture(t)
			f.establish(t)
			if tc.closing {
				f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1, Flags: tcp.FlagACK | tcp.FlagFIN, Window: 60000})
				f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1, Flags: tcp.FlagACK | tcp.FlagFIN, Window: 58000})
				f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 1, Flags: tcp.FlagACK | tcp.FlagFIN, Window: 65535})
				f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 2, Ack: clientISS + 2, Flags: tcp.FlagACK, Window: 60000})
				f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 2, Ack: clientISS + 2, Flags: tcp.FlagACK, Window: 58000})
			}
			seg := tc.seg
			seg.SrcPort, seg.DstPort = 49152, 80
			raw := tcp.Marshal(f.aC, f.aP, &seg)
			if tc.bad {
				raw[17] ^= 0x40 // the checksum field's low byte
			}
			f.b.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aC, Dst: f.aP}, raw)
			if got := f.b.Conns(); got != tc.want {
				t.Errorf("%d records left, want %d", got, tc.want)
			}
		})
	}
}

// TestBridgeDegradedNewConnections: connections arriving after the
// secondary has failed establish against the primary alone, with
// Delta-seq = 0 (the primary's SYN stands in for the missing secondary's).
func TestBridgeDegradedNewConnections(t *testing.T) {
	f := newPriFixture(t)
	f.b.HandleSecondaryFailure()
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS, Flags: tcp.FlagSYN, Window: 65535,
		Options: []tcp.Option{tcp.MSSOption(1460)}})
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS, Ack: clientISS + 1,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)}})
	if len(f.sent) != 1 {
		t.Fatalf("SYN-ACK not emitted in degraded mode (sent=%d)", len(f.sent))
	}
	syn := f.sent[0].seg
	if syn.Seq != pISS {
		t.Errorf("degraded SYN-ACK seq = %d, want the primary's own ISS (Delta=0)", syn.Seq)
	}
	f.sent = nil
	// Data passes straight through, untranslated.
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: []byte("solo")})
	if len(f.sent) != 1 || f.sent[0].seg.Seq != pISS+1 {
		t.Fatalf("degraded new-connection data mishandled: %+v", f.sent)
	}
}

// TestBridgeFinMatching: the merged FIN is emitted only when both replicas
// have produced theirs at the same stream position (section 8).
func TestBridgeFinMatching(t *testing.T) {
	f := newPriFixture(t)
	f.establish(t)
	f.sent = nil
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagFIN | tcp.FlagPSH, Window: 60000, Payload: []byte("bye")})
	if len(f.sent) != 0 {
		t.Fatal("FIN released before the secondary's")
	}
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 1, Ack: clientISS + 1,
		Flags: tcp.FlagACK | tcp.FlagFIN | tcp.FlagPSH, Window: 58000, Payload: []byte("bye")})
	if len(f.sent) != 1 {
		t.Fatalf("merged FIN emissions = %d", len(f.sent))
	}
	out := f.sent[0].seg
	if !out.Flags.Has(tcp.FlagFIN) || string(out.Payload) != "bye" {
		t.Fatalf("merged segment: %+v", out)
	}
	// The client acknowledges the FIN; with its own FIN already seen, the
	// record is garbage-collected.
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 1, Ack: sISS + 5,
		Flags: tcp.FlagACK | tcp.FlagFIN, Window: 65535})
	f.fromPrimaryTCP(t, &tcp.Segment{Seq: pISS + 5, Ack: clientISS + 2, Flags: tcp.FlagACK, Window: 60000})
	f.fromSecondaryWire(t, &tcp.Segment{Seq: sISS + 5, Ack: clientISS + 2, Flags: tcp.FlagACK, Window: 58000})
	f.fromClientWire(t, &tcp.Segment{Seq: clientISS + 2, Ack: sISS + 5, Flags: tcp.FlagACK, Window: 65535})
	if f.b.Conns() != 0 {
		t.Errorf("record not garbage-collected after full close (%d left)", f.b.Conns())
	}
}
