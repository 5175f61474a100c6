package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"tcpfailover/internal/core"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/replica"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Seam spans: the traced run times the program at the boundaries it already
// exposes, without touching a program file. The bridges are re-installed on
// their hosts behind timing wrappers (Host.SetInboundHook/SetOutboundHook
// around the public PrimaryBridge/SecondaryBridge Inbound/Outbound), and the
// benchmark drives Scheduler.Step itself so every event is a parent span.
// A span's self time is its duration minus its children's; step self time
// is what no seam claims — scheduler, ethernet, netstack, ipv4, tcp and the
// applications.

type spanKind uint8

const (
	kindStep spanKind = iota // one Scheduler.Step (web-crash: one 100 ms step of virtual time)
	kindPrimaryIn
	kindPrimaryOut
	kindSecondaryIn
	kindSecondaryOut
	numKinds
)

var kindNames = [numKinds]string{
	"sim.step", "core.primary.inbound", "core.primary.outbound",
	"core.secondary.inbound", "core.secondary.outbound",
}

// span is one timed interval. Times are host nanoseconds since the tracer
// started.
type span struct {
	id     int64
	parent int64 // -1 for a root
	start  int64
	dur    int64
	child  int64  // time covered by child spans
	req    uint64 // request id where the benchmark owns the client, else 0
	flow   uint64 // core.TupleKey of the segment, 0 for steps
	kind   spanKind
}

// spanRing is how many of the most recent spans the trace file keeps; the
// per-kind aggregates cover every span.
const spanRing = 1 << 16

type kindAgg struct {
	calls int64
	total int64 // Σ duration
	self  int64 // Σ (duration − children)
}

type tracer struct {
	on    bool // spans are recorded only during the measured phase
	t0    time.Time
	ring  []span
	next  int64 // next span id == spans begun
	ended int64 // spans written to the ring
	open  [8]span
	depth int
	agg   [numKinds]kindAgg

	// req is the request the sequential workloads currently have in
	// flight; spans begun while it is set carry it.
	req uint64
	// servicePort identifies which end of a segment is the client.
	servicePort uint16
	// every, when set, runs once per sampleEvery steps of runUntil, outside
	// any span: gauges that are only non-zero while a request is in flight
	// (the bridge's match queue) are read here.
	every func()
	steps int
}

const sampleEvery = 256

func newTracer(servicePort uint16) *tracer {
	return &tracer{t0: time.Now(), ring: make([]span, spanRing), servicePort: servicePort}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// enable switches recording; it is only called between spans. A nil tracer
// (untraced run) ignores it.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

func (t *tracer) begin(kind spanKind, flow uint64) {
	if !t.on {
		return
	}
	parent := int64(-1)
	if t.depth > 0 {
		parent = t.open[t.depth-1].id
	}
	t.open[t.depth] = span{id: t.next, parent: parent, kind: kind, req: t.req, flow: flow, start: t.now()}
	t.next++
	t.depth++
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	t.depth--
	s := &t.open[t.depth]
	s.dur = t.now() - s.start
	if t.depth > 0 {
		t.open[t.depth-1].child += s.dur
	}
	a := &t.agg[s.kind]
	a.calls++
	a.total += s.dur
	a.self += s.dur - s.child
	t.ring[t.ended%spanRing] = *s
	t.ended++
}

// evicted is how many spans fell out of the ring (still counted in agg).
func (t *tracer) evicted() int64 {
	if t.ended > spanRing {
		return t.ended - spanRing
	}
	return 0
}

// flowKey packs the client end of a TCP segment the way the bridges key
// their flow tables, so a span can be joined to bridge and obs state.
func (t *tracer) flowKey(src, dst ipv4.Addr, segment []byte) uint64 {
	if len(segment) < 4 {
		return 0
	}
	sp, dp := tcp.RawSrcPort(segment), tcp.RawDstPort(segment)
	if dp == t.servicePort {
		return uint64(core.MakeTupleKey(src, sp, dp))
	}
	return uint64(core.MakeTupleKey(dst, dp, sp))
}

// wrapGroup re-installs both bridges of a replica group behind timing
// wrappers.
func (t *tracer) wrapGroup(g *replica.Group) {
	pb, sb := g.PrimaryBridge(), g.SecondaryBridge()
	t.wrapHost(g.Primary(), pb.Inbound, pb.Outbound, kindPrimaryIn, kindPrimaryOut)
	t.wrapHost(g.Secondary(), sb.Inbound, sb.Outbound, kindSecondaryIn, kindSecondaryOut)
}

func (t *tracer) wrapHost(h *netstack.Host, in netstack.InboundHook, out netstack.OutboundHook, kin, kout spanKind) {
	h.SetInboundHook(func(ifIndex int, hdr ipv4.Header, payload []byte) (netstack.InVerdict, ipv4.Header, []byte) {
		t.begin(kin, t.flowKey(hdr.Src, hdr.Dst, payload))
		v, h2, p2 := in(ifIndex, hdr, payload)
		t.end()
		return v, h2, p2
	})
	h.SetOutboundHook(func(src, dst ipv4.Addr, segment []byte) bool {
		t.begin(kout, t.flowKey(src, dst, segment))
		ok := out(src, dst, segment)
		t.end()
		return ok
	})
}

// runUntil is Scenario.RunUntil with every Step wrapped in a parent span.
func (t *tracer) runUntil(sched *sim.Scheduler, cond func() bool, deadline time.Duration) error {
	for !cond() {
		if sched.Now() > deadline {
			return fmt.Errorf("condition not met before deadline (now=%v)", sched.Now())
		}
		t.begin(kindStep, 0)
		ok := sched.Step()
		t.end()
		if t.steps++; t.every != nil && t.steps%sampleEvery == 0 {
			t.every()
		}
		if !ok {
			if cond() {
				return nil
			}
			return fmt.Errorf("event queue empty at %v", sched.Now())
		}
	}
	return nil
}

// share is kind k's total time as a share of all root (step) time.
func (t *tracer) share(k spanKind) float64 {
	if t.agg[kindStep].total == 0 {
		return 0
	}
	return float64(t.agg[k].total) / float64(t.agg[kindStep].total)
}

// write dumps the ring as one JSON document: spans in completion order with
// parent links and self times, plus the whole-run aggregates. Children
// complete before their parent, so a reader that wants a tree indexes by id.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"clock\":\"host ns since trace start\",\n", workload, seed)
	fmt.Fprintf(w, "\"spans_total\":%d,\"spans_evicted\":%d,\n\"aggregates\":[", t.ended, t.evicted())
	for k := spanKind(0); k < numKinds; k++ {
		if k > 0 {
			w.WriteString(",")
		}
		a := t.agg[k]
		fmt.Fprintf(w, "\n{\"name\":%q,\"calls\":%d,\"total_ns\":%d,\"self_ns\":%d}", kindNames[k], a.calls, a.total, a.self)
	}
	w.WriteString("],\n\"spans\":[")
	first := t.ended - spanRing
	if first < 0 {
		first = 0
	}
	for i := first; i < t.ended; i++ {
		s := &t.ring[i%spanRing]
		if i > first {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d,\"self_ns\":%d,\"req\":%d,\"flow\":\"%016x\"}",
			s.id, s.parent, kindNames[s.kind], s.start, s.dur, s.dur-s.child, s.req, s.flow)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
