package core

import (
	"encoding/binary"
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/tcp"
)

// FuzzSecondarySnoop throws attacker-crafted TCP bytes at the secondary
// bridge's promiscuous snoop path and the primary bridge's demultiplexer —
// the two raw-parsing surfaces an in-LAN attacker reaches without
// completing any handshake — and at the two composed: a chain's interior
// backup, as a client segment to the service address and as a datagram to
// the backup's own. The harness asserts the malformed-frame guard: nothing
// panics, and a frame whose data offset lies outside its own bytes is
// dropped and counted — once — rather than delivered, snooped or cached.
//
// The input doubles as a script: when it is long enough to be a sane
// segment it is replayed against an established bridge connection with the
// fuzzer in control of seq/ack/flags/payload, covering truncated and
// overlapping retransmissions in the byte-matching queues.
func FuzzSecondarySnoop(f *testing.F) {
	// A sane ACK, a truncated header, a data offset past the end, and an
	// offset below the minimum.
	f.Add(tcp.Marshal(ipv4.MustParseAddr("10.0.2.1"), ipv4.MustParseAddr("10.0.1.1"),
		&tcp.Segment{SrcPort: 49152, DstPort: 80, Seq: 1, Flags: tcp.FlagACK, Window: 65535}))
	f.Add([]byte{0xc0, 0x00, 0x00, 0x50, 0, 0, 0, 1})
	long := make([]byte, 24)
	long[12] = 0xf0 // data offset 60 > len
	f.Add(long)
	short := make([]byte, 24)
	short[12] = 0x10 // data offset 4 < 5 words
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		sec := newSecFixture(t)
		hdr := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: sec.aC, Dst: sec.aP}
		buf := append([]byte(nil), data...)
		verdict, _, _ := sec.b.Inbound(0, hdr, buf)
		if len(data) >= tcp.HeaderLen && !tcp.RawSane(data) {
			if verdict != netstack.VerdictDrop {
				t.Fatalf("insane frame not dropped (verdict %v)", verdict)
			}
			if sec.b.Stats().MalformedDrops == 0 {
				t.Fatal("malformed drop not counted")
			}
		}

		mid := newSecFixtureNext(t, ipv4.MustParseAddr("10.0.1.3"))
		reg := obs.NewRegistry()
		mid.b.AttachObs(reg, "s")
		for i, dst := range []ipv4.Addr{mid.aP, mid.aS} {
			hdr := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: mid.aC, Dst: dst}
			verdict, _, _ := mid.b.Inbound(0, hdr, append([]byte(nil), data...))
			if len(data) >= tcp.HeaderLen && !tcp.RawSane(data) {
				drops, _ := reg.Lookup(`bridge_malformed_drops_total{host="s"}`)
				if verdict != netstack.VerdictDrop || drops != int64(i+1) {
					t.Fatalf("insane frame to %v: verdict %v, %d drops counted after %d frames", dst, verdict, drops, i+1)
				}
				if mid.b.Flows() != 0 || mid.b.Stats().SnoopedIn != 0 {
					t.Fatalf("insane frame left %d flows, %d snooped", mid.b.Flows(), mid.b.Stats().SnoopedIn)
				}
			}
		}

		pri := newPriFixture(t)
		hdrP := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: pri.aC, Dst: pri.aP}
		pri.b.Inbound(0, hdrP, append([]byte(nil), data...))

		// Structured replay: an established connection attacked with a
		// fuzzer-chosen segment (overlaps, stale data, far-future data).
		if len(data) < 10 {
			return
		}
		pri2 := newPriFixture(t)
		pri2.establish(t)
		seq := tcp.Seq(clientISS + 1).Add(int(int32(binary.BigEndian.Uint32(data[:4]))))
		ack := tcp.Seq(sISS + 1).Add(int(int32(binary.BigEndian.Uint32(data[4:8]))))
		flags := tcp.Flags(data[8]) &^ tcp.FlagSYN
		payload := data[10:]
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		raw := tcp.Marshal(pri2.aC, pri2.aP, &tcp.Segment{
			SrcPort: 49152, DstPort: 80, Seq: seq, Ack: ack,
			Flags: flags | tcp.FlagACK, Window: 65535, Payload: payload,
		})
		pri2.b.Inbound(0, hdrP, raw)
	})
}

// wrapISS are the replica initial sequence numbers of
// wraparound_bridge_test.go: Δseq, the parked spans or both straddle 2^32.
var wrapISS = [4][2]tcp.Seq{
	{1000, 0xffffffff - 2000},
	{0xffffffff - 2000, 1000},
	{0xffffffff - 500, 0xffffffff - 40000},
	{123456, 0xffffffff},
}

// FuzzPrimaryDiverted throws fuzzer-chosen bytes at PrimaryBridge.Inbound
// as the TCP segment of a datagram addressed to aP, against a bridge
// holding one established connection with bytes parked in both queues: 100
// from the primary waiting for the secondary's copy, 100 from the
// secondary beyond a 100-byte hole. This is the path E11 showed an in-LAN
// attacker reaches, and fromSecondary reads payload out of the match ring
// in place, so a clipped span or a stale alias shows up here.
//
// The input is used three ways: as it is, from the client; as it is plus
// the orig-dst option with the checksum made good, from the secondary (the
// demultiplexer); and as a script — seq and ack offsets from the
// connection's own state, flags, which wrap-around ISS pair, which sender —
// so the fuzzer lands inside the window without guessing 64 bits. Nothing
// may panic; every segment the bridge emits must parse and checksum (the
// fixture checks); the queue gauge must equal the bytes the queues hold and
// return to zero at teardown, with no packet buffer live. Bytes that differ
// from the parked ones are a divergence: the connection must end in a reset
// to the client with its record gone.
func FuzzPrimaryDiverted(f *testing.F) {
	script := func(seqOff, ackOff int32, flags tcp.Flags, mode byte, payload int) []byte {
		b := make([]byte, 10+payload)
		binary.BigEndian.PutUint32(b[0:], uint32(seqOff))
		binary.BigEndian.PutUint32(b[4:], uint32(ackOff))
		b[8], b[9] = byte(flags), mode
		return b
	}
	for pair := byte(0); pair < 4; pair++ {
		f.Add(script(100, 0, tcp.FlagACK, pair<<1, 100))           // fills the hole
		f.Add(script(0, 0, tcp.FlagACK|tcp.FlagPSH, pair<<1, 300)) // the primary's bytes and past them
		f.Add(script(150, 0, tcp.FlagACK, pair<<1, 1400))          // overlaps the parked span
		f.Add(script(300, 0, tcp.FlagACK|tcp.FlagFIN, pair<<1, 0)) // FIN past the parked span
		f.Add(script(-70000, 0, tcp.FlagACK, pair<<1, 64))         // stale, far below the window
		f.Add(script(0, 0, tcp.FlagRST, pair<<1|8, 0))             // client RST
		f.Add(script(0, 200, tcp.FlagACK, pair<<1|8, 10))          // client data acking parked bytes
	}
	f.Add([]byte{0xc0, 0x00, 0x00, 0x50, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		netbuf.SetLeakCheck(true)
		defer netbuf.SetLeakCheck(false)
		var mode byte
		if len(data) >= 10 {
			mode = data[9]
		}
		iss := wrapISS[mode>>1&3]
		pri := newPriFixture(t)
		pri.establishAt(t, iss[0], iss[1])
		parked := make([]byte, 100)
		for i := range parked {
			parked[i] = byte(i)
		}
		pri.fromPrimaryTCP(t, &tcp.Segment{Seq: iss[0].Add(1), Ack: clientISS + 1,
			Flags: tcp.FlagACK | tcp.FlagPSH, Window: 60000, Payload: parked})
		pri.fromSecondaryWire(t, &tcp.Segment{Seq: iss[1].Add(201), Ack: clientISS + 1,
			Flags: tcp.FlagACK, Window: 58000, Payload: parked})
		pri.checkQueueGauge(t, 200)

		fromClient := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: pri.aC, Dst: pri.aP}
		fromSecondary := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: pri.aS, Dst: pri.aP}
		divert := func(raw []byte) {
			if div, err := pri.divertedCopy(raw); err == nil {
				pri.b.Inbound(0, fromSecondary, div)
			}
		}

		pri.b.Inbound(0, fromClient, append([]byte(nil), data...))
		if tcp.RawSane(data) {
			divert(data)
		}
		if len(data) >= 10 {
			seg := &tcp.Segment{
				SrcPort: 80, DstPort: 49152,
				Seq:   iss[1].Add(1 + int(int32(binary.BigEndian.Uint32(data[0:])))),
				Ack:   tcp.Seq(clientISS + 1).Add(int(int32(binary.BigEndian.Uint32(data[4:])))),
				Flags: tcp.Flags(data[8]), Window: 58000,
				Payload: data[10:min(len(data), 10+1400)],
			}
			if mode&8 != 0 {
				// From the client instead: its sequence space, and its
				// acknowledgments in the secondary's.
				seg.SrcPort, seg.DstPort = 49152, 80
				seg.Seq, seg.Ack = seg.Ack, seg.Seq
				pri.b.Inbound(0, fromClient, tcp.Marshal(pri.aC, pri.aP, seg))
			} else {
				divert(tcp.Marshal(pri.aS, pri.aC, seg))
			}
		}
		pri.checkQueueGauge(t, -1)
		if last := pri.sent[len(pri.sent)-1].seg; pri.b.Stats().Divergences > 0 && (pri.b.Conns() != 0 || !last.Flags.Has(tcp.FlagRST)) {
			t.Fatalf("divergence left %d records, last client segment %v", pri.b.Conns(), last.Flags)
		}

		for _, k := range pri.b.conns.AppendKeys(nil) {
			idx, _ := pri.b.conns.Get(k)
			pri.b.removeConn(pri.b.slots.At(idx))
		}
		pri.checkQueueGauge(t, 0)
		// Acknowledgments the bridge synthesizes on a peer's behalf go out
		// on the wire, not through the emit hook: let them leave the host
		// (or die unresolved in its ARP queue) before counting buffers.
		if err := pri.sched.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		if live := netbuf.Live(); live != 0 {
			t.Fatalf("%d packet buffers live after teardown", live)
		}
	})
}

// checkQueueGauge holds the bridge's queue-bytes gauge to what its
// connections' queues actually hold, and to want when want >= 0.
func (f *priFixture) checkQueueGauge(t *testing.T, want int64) {
	t.Helper()
	var held int64
	for _, k := range f.b.conns.AppendKeys(nil) {
		idx, _ := f.b.conns.Get(k)
		c := f.b.slots.At(idx)
		held += int64(c.p.q.Len() + c.s.q.Len())
	}
	if got := f.b.m.queueBytes.Value(); got != held || got < 0 || (want >= 0 && got != want) {
		t.Fatalf("queue gauge %d, queues hold %d, want %d", got, held, want)
	}
}
