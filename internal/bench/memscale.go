package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"tcpfailover/internal/core"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// --- E13: live heap per connection at scale -----------------------------------
//
// E13 measures what the connection *state* costs the runtime: the real
// bridges — a PrimaryBridge and a SecondaryBridge driven through their
// interposition hooks until n connections are established, with all
// per-connection state living in open-addressing tables over slab arenas —
// and the live heap objects and bytes the population adds. No benchmark
// workload holds 10^5-10^6 connections, so this is the one place the
// per-connection footprint is recorded. The pointer-per-connection "map"
// layout the bridges used before internal/flowtab is no longer built; its
// last measurement is one sentence in EXPERIMENTS.md (E13).

// DefaultMemScale is the connection-count sweep for experiment E13.
var DefaultMemScale = []int{100_000, 500_000, 1_000_000}

// MemScalePoint reports one connection count of E13. The heap deltas move
// by a handful of runtime objects from run to run.
type MemScalePoint struct {
	Conns          int     `json:"conns"`
	LiveObjects    int64   `json:"live_objects"` // heap objects added by the population
	LiveBytes      int64   `json:"live_bytes"`   // heap bytes added by the population
	ObjectsPerConn float64 `json:"objects_per_conn"`
	BytesPerConn   float64 `json:"bytes_per_conn"`
}

// MemScale runs E13 for each connection count. The cells run sequentially
// on the calling goroutine: heap measurements of the process itself need an
// otherwise quiet process.
func MemScale(counts []int) ([]MemScalePoint, error) {
	out := make([]MemScalePoint, 0, len(counts))
	for _, n := range counts {
		p, err := memScaleCell(n)
		if err != nil {
			return nil, fmt.Errorf("memscale %d conns: %w", n, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func renderMemScale(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E13: live heap per connection at scale (flowtab bridges) ===")
	fmt.Fprintln(w, "(N established failover connections held live on real bridges,")
	fmt.Fprintln(w, " their state in open-addressing tables and slab arenas; live")
	fmt.Fprintln(w, " objects/bytes are runtime.GC deltas)")
	fmt.Fprintf(w, "%9s %12s %12s %9s\n", "conns", "objects", "obj/conn", "bytes/c")
	for _, p := range r.MemScale {
		fmt.Fprintf(w, "%9d %12d %12.4f %9.0f\n", p.Conns, p.LiveObjects, p.ObjectsPerConn, p.BytesPerConn)
	}
	fmt.Fprintln(w)
}

// msFixture is a pair of bridge hosts driven directly through their hooks —
// no TCP stacks and no wire, so what the cell measures is bridge state, not
// endpoint buffers.
type msFixture struct {
	pri *core.PrimaryBridge
	sec *core.SecondaryBridge
	aP  ipv4.Addr
	aS  ipv4.Addr
}

const msClientBase = 0x0B00_0000 // 11.0.0.0: the synthetic client address block

func newMsFixture() *msFixture {
	f := &msFixture{
		aP: ipv4.MustParseAddr("10.0.1.1"),
		aS: ipv4.MustParseAddr("10.0.1.2"),
	}
	sched := sim.New(1)
	lan := ethernet.NewSegment(sched, ethernet.Config{})
	prefix := ipv4.PrefixFrom(ipv4.MustParseAddr("10.0.1.0"), 24)

	priHost := netstack.NewHost(sched, "p", netstack.DefaultProfile())
	priHost.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 1}, f.aP, prefix)
	priSel := core.NewSelector()
	priSel.EnableServerPort(benchPort)
	f.pri = core.NewPrimaryBridge(priHost, f.aP, f.aS, priSel, 0)
	// Emitted client-bound segments (the combined SYNs) go nowhere.
	f.pri.SetEmitFunc(func(_ ipv4.Addr, pkt *netbuf.Buffer) { pkt.Release() })

	secHost := netstack.NewHost(sched, "s", netstack.DefaultProfile())
	secHost.AttachIface(lan, ethernet.MAC{2, 0, 0, 0, 0, 2}, f.aS, prefix)
	secSel := core.NewSelector()
	secSel.EnableServerPort(benchPort)
	f.sec = core.NewSecondaryBridge(secHost, 0, f.aP, f.aS, secSel)
	return f
}

// establish walks connection i (distinct client address, fixed ports)
// through the three segments that take the primary's record to the
// established state, and snoops the client SYN on the secondary.
func (f *msFixture) establish(i int) error {
	aC := ipv4.Addr(msClientBase + uint32(i))
	hdrToP := ipv4.Header{Protocol: ipv4.ProtoTCP, Src: aC, Dst: f.aP}

	// Client SYN, seen by both bridges.
	syn := tcp.Marshal(aC, f.aP, &tcp.Segment{
		SrcPort: 49152, DstPort: benchPort, Seq: 1000, Flags: tcp.FlagSYN,
		Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if v, _, _ := f.pri.Inbound(0, hdrToP, syn); v != netstack.VerdictPass {
		return fmt.Errorf("conn %d: client SYN verdict %v", i, v)
	}
	snoop := tcp.Marshal(aC, f.aP, &tcp.Segment{
		SrcPort: 49152, DstPort: benchPort, Seq: 1000, Flags: tcp.FlagSYN,
		Window: 65535, Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if v, _, _ := f.sec.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: aC, Dst: f.aP}, snoop); v != netstack.VerdictDeliver {
		return fmt.Errorf("conn %d: snooped SYN verdict %v", i, v)
	}

	// The primary TCP layer's SYN-ACK, held by the bridge.
	synAckP := tcp.Marshal(f.aP, aC, &tcp.Segment{
		SrcPort: benchPort, DstPort: 49152, Seq: 50_000_000, Ack: 1001,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	if !f.pri.Outbound(f.aP, aC, synAckP) {
		return fmt.Errorf("conn %d: primary SYN-ACK not consumed", i)
	}

	// The secondary's SYN-ACK, diverted to the primary with the orig-dst
	// option; completes establishment and emits the combined SYN.
	synAckS := tcp.Marshal(f.aS, aC, &tcp.Segment{
		SrcPort: benchPort, DstPort: 49152, Seq: 90_000_000, Ack: 1001,
		Flags: tcp.FlagSYN | tcp.FlagACK, Window: 60000,
		Options: []tcp.Option{tcp.MSSOption(1460)},
	})
	pkt := netbuf.Get()
	defer pkt.Release()
	div, err := tcp.AppendOrigDstOption(pkt, synAckS, aC)
	if err != nil {
		return err
	}
	tcp.SealChecksum(f.aS, f.aP, div)
	if v, _, _ := f.pri.Inbound(0, ipv4.Header{Protocol: ipv4.ProtoTCP, Src: f.aS, Dst: f.aP}, div); v != netstack.VerdictDrop {
		return fmt.Errorf("conn %d: diverted SYN-ACK verdict %v", i, v)
	}
	return nil
}

// memScaleCell populates the real bridges to n connections and measures the
// live heap they add: the delta between a settled, collected process before
// the population and a collection after it.
func memScaleCell(n int) (MemScalePoint, error) {
	p := MemScalePoint{Conns: n}
	var ms0, ms1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	f := newMsFixture()
	for i := 0; i < n; i++ {
		if err := f.establish(i); err != nil {
			return p, err
		}
	}
	if got := f.pri.Conns(); got != n {
		return p, fmt.Errorf("primary tracks %d conns, want %d", got, n)
	}
	runtime.GC() // settle: free the population phase's transient garbage
	runtime.ReadMemStats(&ms1)
	runtime.KeepAlive(f)
	p.LiveObjects = int64(ms1.HeapObjects) - int64(ms0.HeapObjects)
	p.LiveBytes = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	p.ObjectsPerConn = float64(p.LiveObjects) / float64(n)
	p.BytesPerConn = float64(p.LiveBytes) / float64(n)
	return p, nil
}
