package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
	"tcpfailover/internal/tcp"
)

// shrink cuts every workload's fixed window: the streams to one slice per
// stream-send window, conn-scale and web-crash by the divisors given.
func shrink(t tier, conn, web int) tier {
	if t.quick {
		return t // already tiny
	}
	t.streamWindow = t.streamPerSlice * t.sendReps
	t.connWindow = max(t.connWindow/conn, 1)
	t.webReps = max(t.webReps/web, 1)
	return t
}

// The traced run repeats the fixed window in several phases, so each phase
// gets a fraction of it: the per-layer numbers are ratios and shares, which
// a shorter window leaves unchanged while the run stays well inside its cap.
// The coverage child (counters are exact, and atomic counting is slow) and
// the unreplicated twin (only its median request time is used) get less.
func tracedTier(t tier) tier { return shrink(t, 4, 4) }
func smallTier(t tier) tier  { return shrink(t, 10, 8) }

// collector gathers what the traced phase exposes: gauges between slices,
// and at the end of every window — web-crash has several, each its own
// scenario — the counters, link statistics and span records of the cells
// about to be torn down.
type collector struct {
	pendingMax, queueMax, liveMax, flowsMax float64

	cnt      map[string]float64 // obs counters summed over windows and cells
	segments float64            // frames carried since build, summed likewise
	lan      struct{ frames, bytes, collisions, lost, cellSeconds float64 }
	lanCfg   ethernet.Config

	connectUS                                  []float64
	stall, detect, announce, resume, recoverMS []float64
	quiesceErr                                 error
}

// gauges reads the instantaneous values whose maximum is reported.
func (c *collector) gauges(w workload) {
	var pending, queue, flows float64
	var last *sim.Scheduler // cells of one shard are adjacent and share it
	for _, sc := range w.cells() {
		queue += float64(lookup(sc.Obs, `bridge_queue_bytes{host="primary"}`))
		if sc.Group != nil {
			flows += float64(sc.Group.PrimaryBridge().Conns())
		}
		if sc.Sched != last {
			last = sc.Sched
			pending += float64(sc.Sched.PendingEvents())
		}
	}
	c.pendingMax = max(c.pendingMax, pending)
	c.queueMax = max(c.queueMax, queue)
	c.flowsMax = max(c.flowsMax, flows)
	c.liveMax = max(c.liveMax, float64(netbuf.Live()))
}

func (c *collector) slice(w workload, done bool) {
	c.gauges(w)
	if !done {
		return
	}
	if c.cnt == nil {
		c.cnt = map[string]float64{}
	}
	cells := w.cells()
	for k, v := range counters(cells) {
		c.cnt[k] += v
	}
	c.segments += float64(w.segments())
	c.lanCfg = cells[0].ServerLAN.Config()
	for _, sc := range cells {
		st := sc.ServerLAN.Stats()
		c.lan.frames += float64(st.Frames)
		c.lan.bytes += float64(st.Bytes)
		c.lan.collisions += float64(st.Collisions)
		c.lan.lost += float64(st.Lost + sc.ClientLink.Stats().Lost)
		c.lan.cellSeconds += sc.Now().Seconds()
		c.spans(sc.Spans)
	}
	// Quiescence: stop the load and let everything in flight land, so that
	// at the end of the phase every pooled buffer must be back.
	if err := w.quiesce(); err != nil && c.quiesceErr == nil {
		c.quiesceErr = err
	}
}

// spans derives connection set-up time and the failover stall attribution
// from one cell's span recorder (the program's own, internal/obs).
func (c *collector) spans(rec *obs.SpanRecorder) {
	for _, sp := range rec.Spans() {
		syn, ok1 := sp.Time(obs.SpanSynSent)
		est, ok2 := sp.Time(obs.SpanEstablished)
		if ok1 && ok2 {
			c.connectUS = append(c.connectUS, float64(est-syn)/1e3)
		}
		if st, ok := rec.Stall(&sp); ok {
			c.stall = append(c.stall, float64(st.Total)/1e6)
			c.detect = append(c.detect, float64(st.Detection)/1e6)
			c.announce = append(c.announce, float64(st.Announce)/1e6)
			c.resume = append(c.resume, float64(st.Resume)/1e6)
			c.recoverMS = append(c.recoverMS, float64(st.Recovery)/1e6)
		}
	}
}

func lookup(reg *obs.Registry, name string) int64 {
	v, _ := reg.Lookup(name)
	return v
}

// counters sums every cell's registry; series of one base name with
// different labels are also summed under the bare base name.
func counters(cells []*tcpfailover.Scenario) map[string]float64 {
	regs := make([]*obs.Registry, len(cells))
	for i, sc := range cells {
		regs[i] = sc.Obs
	}
	out := map[string]float64{}
	for _, s := range obs.MergeRegistries(regs...) {
		base, _, labelled := strings.Cut(s.Name, "{")
		if s.Kind == "histogram" {
			out[base+".sum"] += float64(s.Sum)
			out[base+".count"] += float64(s.Count)
			continue
		}
		out[s.Name] += float64(s.Value)
		if labelled {
			out[base] += float64(s.Value)
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profileSeconds is how long the profiled phase keeps slicing past its fixed
// window: at the profiler's 100 Hz a share then resolves to a third of a per
// cent.
const profileSeconds = 3

// runTraced produces every per-layer metric for one workload. It runs the
// fixed window untraced under the CPU profiler, again with spans, digests
// and seam wrappers on, then the unreplicated twin, the layer kernels, the
// coverage child and (web-crash) the two-shard rerun.
func runTraced(name string, t tier, c config) (*result, error) {
	tt := tracedTier(t)
	r := &result{quick: t.quick}
	wA, err := newWorkload(name, tt)
	if err != nil {
		return nil, err
	}
	nWin := wA.pooled()
	vals := map[string]float64{}

	dir, err := buildDir()
	if err != nil {
		return nil, err
	}

	// Phase A: untraced, profiled. The denominator of the tracing overhead
	// and the source of the CPU shares and allocation counts.
	profPath := filepath.Join(dir, "cpu-"+name+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	mzA := newMeasurer()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	mA, err := mzA.run(wA, c.seed, phaseSpec{setups: 1, minWindows: nWin, budget: profileSeconds * time.Second})
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	wA.teardown()
	vA := pool(mA.windows, nWin)
	normA, rawA := mA.hostNormNSPerSegment(wA)
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, p := range ledgerPackages {
		vals[p+".cpu_share"] = shares[p]
	}
	vals["runtime.cpu_share"] = shares["runtime"]
	seg := float64(vA.segments)
	vals["go.mallocs_per_segment"] = ratio(float64(mA.mem1.Mallocs-mA.mem0.Mallocs), seg)
	vals["go.alloc_bytes_per_segment"] = ratio(float64(mA.mem1.TotalAlloc-mA.mem0.TotalAlloc), seg)
	vals["go.gc_cycles"] = float64(mA.mem1.NumGC - mA.mem0.NumGC)
	vals["go.gc_pause_ms"] = float64(mA.mem1.PauseTotalNs-mA.mem0.PauseTotalNs) / 1e6

	// Phase B: the same seed and work with spans, digests, the leak check
	// and the seam wrappers on.
	netbuf.SetLeakCheck(true)
	tr := newTracer(servicePort)
	wB, _ := newWorkload(name, tt)
	var col collector
	tr.every = func() { col.gauges(wB) }
	mB, err := newMeasurer().run(wB, c.seed, phaseSpec{setups: 1, minWindows: nWin, mode: runMode{traced: true}, tr: tr,
		onSlice: func(done bool) { col.slice(wB, done) }})
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	if col.quiesceErr != nil {
		return nil, fmt.Errorf("quiesce: %w", col.quiesceErr)
	}
	wB.teardown()
	vB := pool(mB.windows, nWin)
	normB, _ := mB.hostNormNSPerSegment(wB)
	cnt := col.cnt
	var segTraced float64 // frames carried while the tracer was on
	for _, sl := range mB.slices {
		segTraced += sl.segments
	}

	r.Attempted, r.Failed = vB.attempted, vB.failed
	if vA.segments != vB.segments || vA.events != vB.events {
		r.fail("traced run executed %d events / %d segments, untraced %d / %d", vB.events, vB.segments, vA.events, vA.segments)
	}
	if vB.failed != 0 {
		r.fail("%d of %d requests failed in the traced run", vB.failed, vB.attempted)
	}
	vals["netbuf.live_max"] = col.liveMax
	vals["netbuf.live_end"] = float64(netbuf.Live())
	if live := netbuf.Live(); live != 0 {
		r.fail("%d pooled network buffers still live at quiescence", live)
	}
	netbuf.SetLeakCheck(false)

	vals["obs.trace_overhead_ratio"] = ratio(normB, normA)
	vals["obs.span_evictions"] = cnt["obs_span_evictions_total"]
	vals["bench.raw_ns_per_segment"] = rawA
	vals["bench.ref_ns_med"] = median(mA.refNS)
	vals["bench.ref_ns_spread"] = iqrRatio(mA.refNS)
	vals["bench.slices"] = float64(len(mA.slices))
	vals["bench.slice_iqr_ratio"] = mA.sliceIQR(wA.refMix())
	vals["bench.sim_digest"] = float64(vB.digest >> 12) // 52 bits: exact in a float64

	vals["sim.events_per_segment"] = ratio(float64(vB.events), float64(vB.segments))
	vals["sim.pending_events_max"] = col.pendingMax
	wheel, heap := cnt["sim_timer_wheel_arms_total"], cnt["sim_timer_heap_arms_total"]
	vals["sim.wheel_arm_share"] = 100 * ratio(wheel, wheel+heap)

	bw := float64(col.lanCfg.BandwidthBps)
	if bw == 0 {
		bw = 100e6 // ethernet.Config's default
	}
	vals["ethernet.serverlan.collisions_per_kframe"] = 1000 * ratio(col.lan.collisions, col.lan.frames)
	vals["ethernet.serverlan.utilisation"] = 100 * ratio(col.lan.bytes*8, bw*col.lan.cellSeconds)
	vals["ethernet.lost_frames"] = col.lan.lost

	vals["netstack.napi_batch_mean"] = ratio(cnt["net_napi_batch_frames.sum"], cnt["net_napi_batch_frames.count"])
	step := tr.agg[kindStep]
	vals["netstack.seam.step_self_share"] = 100 * ratio(float64(step.self), float64(step.total))

	tcpOut := cnt["tcp_segments_out_total"]
	vals["tcp.retransmits_per_kseg"] = 1000 * ratio(cnt["tcp_retransmissions_total"], tcpOut)
	vals["tcp.dupacks_per_kseg"] = 1000 * ratio(cnt["tcp_dup_acks_total"], tcpOut)
	vals["tcp.fast_retransmits"] = cnt["tcp_fast_retransmits_total"]
	vals["tcp.zero_window_stalls"] = cnt["tcp_zero_window_stalls_total"]
	vals["tcp.ring_grows"] = cnt["tcp_ring_grows_total"]
	vals["tcp.connect_us_p50"] = median(col.connectUS)

	vals["core.primary.inbound.calls_per_segment"] = ratio(float64(tr.agg[kindPrimaryIn].calls), segTraced)
	vals["core.primary.inbound.busy_share"] = 100 * tr.share(kindPrimaryIn)
	vals["core.primary.outbound.calls_per_segment"] = ratio(float64(tr.agg[kindPrimaryOut].calls), segTraced)
	vals["core.primary.outbound.busy_share"] = 100 * tr.share(kindPrimaryOut)
	vals["core.secondary.inbound.busy_share"] = 100 * tr.share(kindSecondaryIn)
	vals["core.secondary.outbound.busy_share"] = 100 * tr.share(kindSecondaryOut)
	vals["core.queue_bytes_max"] = col.queueMax
	vals["core.released_over_matched"] = ratio(cnt["bridge_bytes_released_total"], cnt["bridge_bytes_matched_total"])
	vals["core.seq_translations_per_segment"] = ratio(cnt["bridge_seq_translations_total"], col.segments)
	vals["core.diverted_per_segment"] = ratio(cnt["bridge_diverted_out_total"], col.segments)
	vals["core.flow_evictions"] = cnt["bridge_flow_evictions_total"]

	vals["replica.stalled_conns"] = float64(len(col.stall))
	vals["replica.stall_ms_p50"] = median(col.stall)
	sort.Float64s(col.stall)
	if n := len(col.stall); n > 0 {
		vals["replica.stall_ms_p99"] = col.stall[min(n-1, n*99/100)]
	}
	vals["detect.detection_ms_p50"] = median(col.detect)
	vals["replica.announce_ms_p50"] = median(col.announce)
	vals["replica.resume_ms_p50"] = median(col.resume)
	vals["replica.recovery_ms_p50"] = median(col.recoverMS)
	for k, x := range vB.notes {
		vals[k] = x
	}
	mix := opMix{
		payload: int(ratio(col.lan.bytes, col.lan.frames)) - 40,
		flows:   int(col.flowsMax), pending: int(col.pendingMax), lan: col.lanCfg,
	}

	out := c.traceOut
	if out == "" {
		out = filepath.Join(dir, "trace-"+name+".json")
	}
	if err := tr.write(out, name, c.seed); err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	r.extra = append(r.extra, fmt.Sprintf("span file %s (%d spans, last %d kept)", out, tr.ended, min(tr.ended, spanRing)))

	// Phase C: the unreplicated twin, one deterministic run.
	wC, _ := newWorkload(name, smallTier(t))
	mC, err := newMeasurer().run(wC, c.seed, phaseSpec{setups: 1, minWindows: 1, mode: runMode{unreplicated: true}})
	if err != nil {
		return nil, fmt.Errorf("unreplicated twin: %w", err)
	}
	wC.teardown()
	vals["core.virt_overhead_ratio"] = ratio(vB.p50ms, pool(mC.windows, 1).p50ms)

	// Phase D: layer kernels at the operating point phase B recorded.
	mzA.layerKernels(mix, vals)
	vals["apps.heap_kB_per_conn"], err = appHeapPerConn(name)
	if err != nil {
		return nil, err
	}

	// Phase E: exact statements per package from the coverage binary.
	stmts, child, err := coverageLedger(dir, name, c.seed, t.quick)
	if err != nil {
		return nil, err
	}
	for _, p := range ledgerPackages {
		vals[p+".stmts_per_segment"] = ratio(stmts[p], float64(child.Segments))
	}
	vals["apps.stmts_per_payload_byte"] = ratio(stmts["apps"], float64(child.Payload))

	// Phase F: the sharded engine, where the workload has cells to shard.
	if name == "web-crash" {
		if err := shardRerun(tt, c.seed, vB.digest, vals, r); err != nil {
			return nil, err
		}
	}

	if !t.quick {
		checkStalledShare(r, vB)
	}
	if name == "web-crash" {
		r.extra = append(r.extra, fmt.Sprintf("the program's span recorders attribute a stall to %.0f connections (those established before the takeover)", vals["replica.stalled_conns"]))
	}

	for _, lm := range layerMetrics {
		r.put(lm.name, vals[lm.name], lm.unit)
	}
	r.Correct = len(r.checks) == 0
	return r, nil
}

// shardRerun reruns the traced window on one and on two shards (two worker
// threads), checks that the digests agree with each other and with the
// traced phase, and reports the sharded engine's numbers.
func shardRerun(tt tier, seed int64, want uint64, vals map[string]float64, r *result) error {
	var norm [3]float64
	for _, shards := range []int{1, 2} {
		w := &webCrash{t: tt}
		runtime.GOMAXPROCS(shards)
		m, err := newMeasurer().run(w, seed, phaseSpec{setups: 1, minWindows: tt.webReps, mode: runMode{traced: true, shards: shards}})
		runtime.GOMAXPROCS(1)
		if err != nil {
			return fmt.Errorf("%d-shard rerun: %w", shards, err)
		}
		for _, s := range m.slices {
			norm[shards] += s.norm(w.refMix())
		}
		if got := pool(m.windows, tt.webReps).digest; got != want {
			r.fail("%d-shard digest %016x differs from the traced run's %016x", shards, got, want)
		}
		if shards == 2 {
			g := w.ss.Group
			vals["sim.shard.windows_per_vsec"] = ratio(float64(g.Windows()), g.Now().Seconds())
			vals["sim.shard.cross_posts_per_window"] = ratio(float64(g.CrossPosts()), float64(g.Windows()))
		}
		w.teardown()
	}
	vals["sim.shard.speedup_2"] = ratio(norm[1], norm[2])
	return nil
}

// appHeapPerConn measures the heap one accepted connection of the
// workload's internal/apps server retains, against a bare accept: 256
// idle connections to each, live heap after a forced GC, difference per
// connection. conn-scale runs the benchmark's own lean app and reports 0.
func appHeapPerConn(name string) (float64, error) {
	install := map[string]func(h *netstack.Host) error{
		"stream-recv": func(h *netstack.Host) error { _, err := apps.NewReqReplyServer(h.TCP(), servicePort); return err },
		"stream-send": func(h *netstack.Host) error { _, err := apps.NewSinkServer(h.TCP(), servicePort); return err },
		"web-crash":   func(h *netstack.Host) error { _, err := apps.NewHTTPServer(h.TCP(), servicePort); return err },
	}[name]
	if install == nil {
		return 0, nil
	}
	bare := func(h *netstack.Host) error {
		_, err := h.TCP().Listen(servicePort, func(*tcp.Conn) {})
		return err
	}
	const conns = 256
	heapWith := func(inst func(h *netstack.Host) error) (float64, error) {
		opts := tcpfailover.LANOptions()
		opts.ServerPorts = []uint16{servicePort}
		opts.Unreplicated = true
		sc, err := tcpfailover.NewScenario(opts)
		if err != nil {
			return 0, err
		}
		if err := inst(sc.Primary); err != nil {
			return 0, err
		}
		up := 0
		for i := 0; i < conns; i++ {
			c, err := sc.Client.TCP().Dial(sc.ServiceAddr(), servicePort)
			if err != nil {
				return 0, err
			}
			c.OnEstablished(func() { up++ })
		}
		if err := sc.RunUntil(func() bool { return up == conns }, time.Minute); err != nil {
			return 0, err
		}
		if err := sc.Run(time.Second); err != nil {
			return 0, err
		}
		heapMB := liveHeapMB()
		runtime.KeepAlive(sc)
		return heapMB, nil
	}
	with, err := heapWith(install)
	if err != nil {
		return 0, err
	}
	without, err := heapWith(bare)
	if err != nil {
		return 0, err
	}
	return (with - without) * 1000 / conns, nil
}
