package netstack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// arrival is one hand-built TCP frame handed to a host's frameIn at a
// scripted instant; flip >= 0 flips that bit of the marshaled segment the
// way the fault injector would.
type arrival struct {
	at   time.Duration
	ifc  int
	key  flowKey
	seg  tcp.Segment
	flip int
}

// delivery is one segment as ipInput was handed it.
type delivery struct {
	at    time.Duration
	key   flowKey
	valid bool
	data  []byte // the payload of a valid segment, every byte of an invalid one
}

// napiRig is a host with two interfaces that owns no address and forwards
// nothing, so each delivered segment is tapped and dropped.
type napiRig struct {
	sched      *sim.Scheduler
	h          *Host
	batch      obs.Histogram
	deliveries []delivery
	busy       []time.Duration // cpuBusyUntil after each arrival
}

func newNapiRig(profile Profile) *napiRig {
	sched := sim.New(1)
	r := &napiRig{sched: sched, h: NewHost(sched, "h", profile)}
	for i := 0; i < 2; i++ {
		net := ipv4.MustParseAddr(fmt.Sprintf("10.0.%d.0", i))
		r.h.AttachIface(ethernet.NewSegment(sched, ethernet.Config{}),
			ethernet.MAC{2, 0, 0, 0, 0, byte(i + 1)}, net+1, ipv4.PrefixFrom(net, 24))
	}
	r.batch = obs.NewRegistry().Histogram("batch", napiBatchBounds)
	r.h.napiBatch = r.batch
	r.h.AddPacketTap(func(_ string, hdr ipv4.Header, b []byte) {
		d := delivery{at: sched.Now(), valid: tcp.ComputeChecksum(hdr.Src, hdr.Dst, b) == 0,
			key: flowKey{hdr.Src, hdr.Dst, tcp.RawSrcPort(b), tcp.RawDstPort(b)}}
		if d.valid {
			b = tcp.RawPayload(b)
		}
		d.data = append([]byte(nil), b...)
		r.deliveries = append(r.deliveries, d)
	})
	return r
}

// inject hands the host one frame now.
func (r *napiRig) inject(a *arrival) {
	a.seg.SrcPort, a.seg.DstPort = a.key.sport, a.key.dport
	pkt := netbuf.From(tcp.Marshal(a.key.src, a.key.dst, &a.seg))
	if a.flip >= 0 {
		b := pkt.Bytes()
		b[a.flip/8%len(b)] ^= 1 << (a.flip % 8)
	}
	ipv4.PrependHeader(pkt, ipv4.Header{TTL: 64, Protocol: ipv4.ProtoTCP, Src: a.key.src, Dst: a.key.dst})
	r.h.frameIn(r.h.ifaces[a.ifc], ethernet.Frame{Type: ethernet.TypeIPv4, Payload: pkt.Bytes(), Buf: pkt})
	r.busy = append(r.busy, r.h.cpuBusyUntil)
}

// play runs the schedule to quiescence on a host with the given profile and
// checks that nothing stays behind: no pending head, no packet buffer.
func play(t *testing.T, profile Profile, schedule []arrival) *napiRig {
	t.Helper()
	netbuf.SetLeakCheck(true)
	defer netbuf.SetLeakCheck(false)
	r := newNapiRig(profile)
	for i := range schedule {
		a := &schedule[i]
		r.sched.At(a.at, "arrive", func() { r.inject(a) })
	}
	if err := r.sched.Run(); err != nil {
		t.Fatal(err)
	}
	for _, head := range r.h.inPend {
		if head != nil {
			t.Errorf("budget %d: flow %v still in the pending table at quiescence", profile.NAPIBudget, head.key)
		}
	}
	if live := netbuf.Live(); live != 0 {
		t.Errorf("budget %d: %d packet buffers live at quiescence", profile.NAPIBudget, live)
	}
	return r
}

// streams concatenates what each flow was delivered, valid payload and
// invalid segments apart.
func (r *napiRig) streams() map[string][]byte {
	out := make(map[string][]byte)
	for _, d := range r.deliveries {
		k := fmt.Sprintf("%v valid=%v", d.key, d.valid)
		out[k] = append(out[k], d.data...)
	}
	return out
}

// batchFrames returns the frame count of each delivery instant, for a
// schedule whose frames all carry frameLen payload bytes.
func (r *napiRig) batchFrames(frameLen int) []int {
	var out []int
	var last time.Duration = -1
	for _, d := range r.deliveries {
		if d.at != last {
			out, last = append(out, 0), d.at
		}
		out[len(out)-1] += len(d.data) / frameLen
	}
	return out
}

// TestDisplacedHeadLeavesTheTable: a pending head that can take no more
// frames — it reached the budget, or the flow's next frame came in on
// another interface — is replaced by a new head. It must leave the table
// then: firing later, it would otherwise remove its successor's entry, and
// every further frame of the burst would head a chain of its own. With no
// jitter a 100-byte frame costs 47.968 us of ingress CPU, so the comments
// below give exact instants.
func TestDisplacedHeadLeavesTheTable(t *testing.T) {
	const frameLen = 100
	key := flowKey{ipv4.MustParseAddr("10.9.0.1"), ipv4.MustParseAddr("10.8.0.1"), 40000, 80}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	cases := []struct {
		name string
		at   []time.Duration
		ifc  []int
		want []int
	}{
		// Frames 1-4 fill head A (fires at 191.9 us); 5 displaces it and heads
		// B (due 239.8); 6, 7, 8 arrive after A fired and before B does, each
		// pushing B out by one service time; 9 displaces the full B (fires at
		// 383.7) and 10 joins C after B fired.
		{"budget", []time.Duration{0, us(1), us(2), us(3), us(4), us(200), us(250), us(300), us(350), us(400)},
			[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []int{4, 4, 2}},
		// Frame 2 arrives on the other interface and displaces A (fires at
		// 48.0 us) after one frame; 3 and 4 arrive after that and join B.
		{"interface", []time.Duration{0, us(1), us(60), us(100)}, []int{0, 1, 1, 1}, []int{1, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var schedule []arrival
			var sent []byte
			for i, at := range tc.at {
				p := bytes.Repeat([]byte{byte(i + 1)}, frameLen)
				schedule = append(schedule, arrival{at: at, ifc: tc.ifc[i], key: key, flip: -1,
					seg: tcp.Segment{Seq: tcp.Seq(1000 + len(sent)), Ack: 1, Flags: tcp.FlagACK, Window: 4096, Payload: p}})
				sent = append(sent, p...)
			}
			profile := DefaultProfile()
			profile.JitterMax = 0
			plain := play(t, profile, schedule)
			profile.NAPIBudget = 4
			r := play(t, profile, schedule)

			if got := r.batchFrames(frameLen); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("frames per delivery %v, want %v", got, tc.want)
			}
			if n, sum := r.batch.Count(), r.batch.Sum(); n != int64(len(tc.want)) || sum != int64(len(tc.at)) {
				t.Errorf("net_napi_batch_frames saw %d frames in %d batches, want %d in %d", sum, n, len(tc.at), len(tc.want))
			}
			if got := r.streams()[fmt.Sprintf("%v valid=true", key)]; !bytes.Equal(got, sent) {
				t.Errorf("delivered %d bytes, not the %d sent in order", len(got), len(sent))
			}
			if r.h.cpuBusyUntil != plain.h.cpuBusyUntil {
				t.Errorf("CPU busy until %v, unbatched %v", r.h.cpuBusyUntil, plain.h.cpuBusyUntil)
			}
		})
	}
}

// randomSchedule draws bursts and gaps of frames over a few flows and two
// interfaces: mostly small in-order data segments (the ones GRO merges),
// with sequence gaps, bare acks, FINs, near-MSS payloads that do not fit a
// merge, frames on the wrong interface, and bit flips mixed in.
func randomSchedule(rng *rand.Rand) []arrival {
	type flow struct {
		key flowKey
		seq tcp.Seq
		ifc int
	}
	flows := make([]flow, 1+rng.Intn(4))
	for i := range flows {
		flows[i] = flow{ifc: rng.Intn(2), seq: tcp.Seq(rng.Uint32()), key: flowKey{
			ipv4.MustParseAddr("10.9.0.1") + ipv4.Addr(rng.Intn(3)), ipv4.MustParseAddr("10.8.0.1"),
			uint16(40000 + rng.Intn(3)), 80}}
	}
	var out []arrival
	var at time.Duration
	for n := 8 + rng.Intn(40); n > 0; n-- {
		if rng.Intn(6) == 0 {
			at += time.Duration(100+rng.Intn(400)) * time.Microsecond
		} else {
			at += time.Duration(rng.Intn(15000)) * time.Nanosecond
		}
		f := &flows[rng.Intn(len(flows))]
		a := arrival{at: at, ifc: f.ifc, key: f.key, flip: -1,
			seg: tcp.Segment{Seq: f.seq, Ack: tcp.Seq(rng.Uint32()), Flags: tcp.FlagACK, Window: uint16(rng.Uint32())}}
		size := 1 + rng.Intn(200)
		switch rng.Intn(20) {
		case 0:
			size = 0 // bare ack
		case 1:
			size = 1000 + rng.Intn(400)
		case 2:
			a.seg.Flags |= tcp.FlagFIN
		case 3:
			a.seg.Seq = f.seq.Add(rng.Intn(3000)) // hole
		case 4:
			a.ifc = 1 - f.ifc
		case 5, 6:
			a.seg.Flags |= tcp.FlagPSH
		}
		a.seg.Payload = make([]byte, size)
		rng.Read(a.seg.Payload)
		if rng.Intn(12) == 0 {
			a.flip = rng.Intn(8 * (tcp.HeaderLen + size))
		}
		f.seq = a.seg.Seq.Add(size)
		out = append(out, a)
	}
	return out
}

// TestBatchedIngressMatchesUnbatched: batching regroups deliveries and
// changes nothing else. The same frame schedule into a host at budget 0 and
// at budget 8 hands IP input the same bytes per flow in the same order —
// valid segments' payload and invalid segments each compared on their own,
// so a merge that launders a corrupted frame shows — and charges the CPU
// the same at every arrival.
func TestBatchedIngressMatchesUnbatched(t *testing.T) {
	merged, batches := 0, int64(0)
	for trial := int64(0); trial < 1000; trial++ {
		schedule := randomSchedule(rand.New(rand.NewSource(trial)))
		profile := DefaultProfile()
		plain := play(t, profile, schedule)
		profile.NAPIBudget = 8
		r := play(t, profile, schedule)

		want, got := plain.streams(), r.streams()
		for k, w := range want {
			if !bytes.Equal(got[k], w) {
				t.Fatalf("trial %d: flow %s: batched delivery differs from unbatched (%d bytes, want %d)", trial, k, len(got[k]), len(w))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d streams batched, %d unbatched", trial, len(got), len(want))
		}
		if fmt.Sprint(r.busy) != fmt.Sprint(plain.busy) {
			t.Fatalf("trial %d: CPU charges differ:\nbatched   %v\nunbatched %v", trial, r.busy, plain.busy)
		}
		merged += len(plain.deliveries) - len(r.deliveries)
		batches += r.batch.Count()
		if n := r.batch.Sum(); n != int64(len(schedule)) {
			t.Fatalf("trial %d: batches account for %d of %d frames", trial, n, len(schedule))
		}
	}
	if merged == 0 {
		t.Error("no trial merged two segments")
	}
	t.Logf("1000 schedules: %d segments merged away, %d batches", merged, batches)
}

// TestBatchedIngressDoesNotAllocate: a warm host at budget 8 takes frames —
// new heads, joins, merges, chains, displaced heads — with no allocation:
// the pending table is intrusive and its buckets are allocated once.
func TestBatchedIngressDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	profile := DefaultProfile()
	profile.NAPIBudget = 8
	r := newNapiRig(profile)
	r.h.taps = nil
	src, dst := ipv4.MustParseAddr("10.9.0.1"), ipv4.MustParseAddr("10.8.0.1")
	// Three flows of twelve frames each: every flow's ninth frame displaces
	// a full head, and every third frame has a sequence hole, so it chains.
	var frames [][]byte
	for i := 0; i < 36; i++ {
		flow, k := i%3, i/3
		seg := tcp.Segment{SrcPort: uint16(40000 + flow), DstPort: 80, Seq: tcp.Seq(100*k + k/3), Ack: 1,
			Flags: tcp.FlagACK, Window: 4096, Payload: make([]byte, 100)}
		frames = append(frames, ipv4.Marshal(ipv4.Header{TTL: 64, Protocol: ipv4.ProtoTCP, Src: src, Dst: dst},
			tcp.Marshal(src, dst, &seg)))
	}
	ifc := r.h.ifaces[0]
	burst := func() {
		for _, f := range frames {
			pkt := netbuf.Get()
			copy(pkt.Extend(len(f)), f)
			r.h.frameIn(ifc, ethernet.Frame{Dst: ifc.nic.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Bytes(), Buf: pkt})
		}
		if err := r.sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("%v allocations per burst of %d frames, want 0", allocs, len(frames))
	}
	if n := r.batch.Count(); n == 0 || r.batch.Sum() <= n {
		t.Errorf("%d frames in %d batches: the bursts did not batch", r.batch.Sum(), n)
	}
}
