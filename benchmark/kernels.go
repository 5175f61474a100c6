package main

import (
	"time"

	"tcpfailover/internal/apps"
	"tcpfailover/internal/checksum"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// Layer kernels: timed loops over each leaf layer's public functions, at
// the operating point the traced workload recorded (segment size, flow
// count, pending-timer depth), normalised like the end-to-end host metric.
// They answer "did this layer's own code get faster" without the rest of
// the system in the way; the end-to-end metric says whether it mattered.

// opMix is the operating point a traced workload recorded.
type opMix struct {
	payload int             // mean TCP payload bytes per server-LAN frame
	flows   int             // concurrent flows in the bridge tables
	pending int             // pending scheduler events
	lan     ethernet.Config // the workload's server LAN
}

const (
	kernelReps  = 5
	kernelIters = 20000
)

// timeKernel returns the median over kernelReps of fn's normalised
// nanoseconds per iteration; fn runs iters iterations per call.
func (r *measurer) timeKernel(iters int, fn func(iters int)) float64 {
	vals := make([]float64, 0, kernelReps)
	fn(iters / 10) // warm caches and pools
	for i := 0; i < kernelReps; i++ {
		before := r.sample()
		t0 := time.Now()
		fn(iters)
		wall := float64(time.Since(t0).Nanoseconds())
		after := r.sample()
		vals = append(vals, wall/slowdown(before, after, 0.5)/float64(iters))
	}
	return median(vals)
}

func kernelNoop(any) {}

// layerKernels runs every kernel at mix and stores the results.
func (r *measurer) layerKernels(mix opMix, out map[string]float64) {
	payload := min(max(mix.payload, 1), 1460)
	flows := max(mix.flows, 1)

	// sim: arm one short timer and fire it, and arm one and cancel it, with
	// the workload's pending-event depth parked behind them.
	sched := sim.New(1)
	for i := 0; i < mix.pending; i++ {
		sched.AfterArg(time.Hour+time.Duration(i)*time.Microsecond, "kernel.parked", kernelNoop, nil)
	}
	out["sim.kernel.arm_fire_ns"] = r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			sched.AfterArg(50*time.Microsecond, "kernel.fire", kernelNoop, nil)
			sched.Step()
		}
	})
	out["sim.kernel.arm_stop_ns"] = r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			sched.AfterArg(200*time.Millisecond, "kernel.stop", kernelNoop, nil).Stop()
		}
	})

	// ethernet: one frame of the workload's size from NIC to NIC on the
	// workload's LAN, including the delivery event.
	esched := sim.New(1)
	seg := ethernet.NewSegment(esched, mix.lan)
	macA, macB := ethernet.MAC{2, 0, 0, 0, 0, 1}, ethernet.MAC{2, 0, 0, 0, 0, 2}
	a, b := seg.Attach(macA), seg.Attach(macB)
	b.SetHandler(func(f ethernet.Frame) { f.Buf.Release() })
	out["ethernet.kernel.send_deliver_ns"] = r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			buf := netbuf.Get()
			p := buf.Extend(payload + 40)
			_ = a.Send(ethernet.Frame{Dst: macB, Type: ethernet.TypeIPv4, Payload: p, Buf: buf})
			for esched.Step() {
			}
		}
	})

	// tcp wire format: the stack's zero-copy marshal path and its verified
	// unmarshal, on a data segment of the workload's size.
	src, dst := ipv4.AddrFrom4(10, 0, 2, 1), ipv4.AddrFrom4(10, 0, 1, 1)
	body := make([]byte, payload)
	apps.Pattern(body, 0)
	hdr := tcp.Segment{SrcPort: 40000, DstPort: servicePort, Seq: 1000, Ack: 2000, Flags: tcp.FlagACK | tcp.FlagPSH, Window: 65535}
	out["tcp.kernel.marshal_ns"] = r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			pkt := netbuf.Get()
			copy(tcp.MarshalReserve(pkt, &hdr, payload), body)
			tcp.SealChecksum(src, dst, pkt.Bytes())
			pkt.Release()
		}
	})
	hdr.Payload = body
	wire := tcp.Marshal(src, dst, &hdr)
	var parsed tcp.Segment
	out["tcp.kernel.unmarshal_ns"] = r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			if err := tcp.UnmarshalInto(src, dst, wire, true, &parsed); err != nil {
				panic(err)
			}
		}
	})

	// checksum: the full sum per kB at the workload's segment size, and the
	// incremental update the bridges use when they rewrite seq/ack.
	var sink uint16
	perSum := r.timeKernel(kernelIters, func(n int) {
		for i := 0; i < n; i++ {
			sink += checksum.Sum(wire)
		}
	})
	out["checksum.kernel.ns_per_kB"] = perSum * 1000 / float64(len(wire))
	out["checksum.kernel.update_ns"] = r.timeKernel(kernelIters*4, func(n int) {
		for i := 0; i < n; i++ {
			sink = checksum.UpdateUint32(sink, uint32(i), uint32(i)+7)
		}
	})
	kernelSink += uint64(sink)

	out["netbuf.kernel.get_release_ns"] = r.timeKernel(kernelIters*4, func(n int) {
		for i := 0; i < n; i++ {
			netbuf.Get().Release()
		}
	})

	// flowtab: lookups and insert/delete churn in a table holding the
	// workload's flow count, keys shaped like the bridges' tuple keys.
	var tab flowtab.Table
	keys := make([]uint64, flows)
	for i := range keys {
		keys[i] = uint64(0x0a000201+i/49152)<<32 | uint64(16384+i%49152)<<16 | servicePort
		tab.Put(keys[i], uint32(i))
	}
	var hits uint32
	out["flowtab.kernel.get_ns"] = r.timeKernel(kernelIters*4, func(n int) {
		k := 0
		for i := 0; i < n; i++ {
			v, _ := tab.Get(keys[k])
			hits += v
			if k += 7919; k >= flows {
				k %= flows
			}
		}
	})
	out["flowtab.kernel.put_delete_ns"] = r.timeKernel(kernelIters*2, func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(0x0a000301)<<32 | uint64(i&0xffff)<<16 | servicePort
			tab.Put(k, 1)
			tab.Delete(k)
		}
	})
	kernelSink += uint64(hits)

	// apps: the deterministic byte pattern every internal/apps server
	// generates and every client verifies, per kB of a 32 KB buffer.
	buf := make([]byte, 32<<10)
	perFill := r.timeKernel(200, func(n int) {
		for i := 0; i < n; i++ {
			apps.Pattern(buf, int64(i)<<15)
		}
	})
	out["apps.kernel.pattern_ns_per_kB"] = perFill * 1000 / float64(len(buf))
}

// kernelSink keeps kernel results observable so the loops are not removed.
var kernelSink uint64
