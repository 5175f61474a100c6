package main

// ledgerPackages are the repo packages the ledger attributes cost to, one
// stmts_per_segment and one cpu_share metric each.
var ledgerPackages = []string{
	"sim", "ethernet", "arp", "ipv4", "netstack", "tcp", "checksum", "netbuf",
	"flowtab", "core", "replica", "detect", "apps", "loadgen", "obs", "metrics",
}

// layerMetric declares one per-layer metric: BENCHMARK.json lists exactly
// these, and a traced run reports every one of them on every workload (0
// where the layer does no work on that workload).
type layerMetric struct {
	name   string
	unit   string
	better string
}

// layerMetrics is the per-layer ledger, in report order.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	var ms []layerMetric
	add := func(name, unit, better string) { ms = append(ms, layerMetric{name, unit, better}) }
	for _, p := range ledgerPackages {
		add(p+".stmts_per_segment", "count", "lower")
	}
	for _, p := range ledgerPackages {
		add(p+".cpu_share", "%", "lower")
	}
	add("runtime.cpu_share", "%", "lower")

	add("sim.events_per_segment", "count", "lower")
	add("sim.pending_events_max", "count", "lower")
	add("sim.wheel_arm_share", "%", "higher")
	add("sim.kernel.arm_fire_ns", "ns", "lower")
	add("sim.kernel.arm_stop_ns", "ns", "lower")
	add("sim.shard.speedup_2", "x", "higher")
	add("sim.shard.windows_per_vsec", "1/s", "lower")
	add("sim.shard.cross_posts_per_window", "count", "lower")

	add("ethernet.serverlan.collisions_per_kframe", "count", "lower")
	add("ethernet.serverlan.utilisation", "%", "higher")
	add("ethernet.lost_frames", "count", "lower")
	add("ethernet.kernel.send_deliver_ns", "ns", "lower")

	add("netstack.napi_batch_mean", "count", "higher")
	add("netstack.seam.step_self_share", "%", "lower")

	add("tcp.retransmits_per_kseg", "count", "lower")
	add("tcp.dupacks_per_kseg", "count", "lower")
	add("tcp.fast_retransmits", "count", "lower")
	add("tcp.zero_window_stalls", "count", "lower")
	add("tcp.ring_grows", "count", "lower")
	add("tcp.connect_us_p50", "us", "lower")
	add("tcp.kernel.unmarshal_ns", "ns", "lower")
	add("tcp.kernel.marshal_ns", "ns", "lower")

	add("checksum.kernel.ns_per_kB", "ns", "lower")
	add("checksum.kernel.update_ns", "ns", "lower")

	add("netbuf.live_max", "count", "lower")
	add("netbuf.live_end", "count", "lower")
	add("netbuf.kernel.get_release_ns", "ns", "lower")

	add("flowtab.kernel.get_ns", "ns", "lower")
	add("flowtab.kernel.put_delete_ns", "ns", "lower")

	add("core.primary.inbound.calls_per_segment", "count", "lower")
	add("core.primary.inbound.busy_share", "%", "lower")
	add("core.primary.outbound.calls_per_segment", "count", "lower")
	add("core.primary.outbound.busy_share", "%", "lower")
	add("core.secondary.inbound.busy_share", "%", "lower")
	add("core.secondary.outbound.busy_share", "%", "lower")
	add("core.queue_bytes_max", "B", "lower")
	add("core.released_over_matched", "ratio", "higher")
	add("core.seq_translations_per_segment", "count", "lower")
	add("core.diverted_per_segment", "count", "lower")
	add("core.flow_evictions", "count", "lower")
	add("core.virt_overhead_ratio", "x", "lower")

	add("replica.stalled_conns", "count", "lower")
	add("replica.stall_ms_p50", "ms", "lower")
	add("replica.stall_ms_p99", "ms", "lower")
	add("detect.detection_ms_p50", "ms", "lower")
	add("replica.announce_ms_p50", "ms", "lower")
	add("replica.resume_ms_p50", "ms", "lower")
	add("replica.recovery_ms_p50", "ms", "lower")

	add("apps.kernel.pattern_ns_per_kB", "ns", "lower")
	add("apps.stmts_per_payload_byte", "count", "lower")
	add("apps.heap_kB_per_conn", "kB", "lower")

	add("loadgen.arrivals", "count", "higher")
	add("loadgen.dial_errors", "count", "lower")
	add("loadgen.outstanding_at_horizon", "count", "lower")
	add("loadgen.lateness_ms_max", "ms", "lower")

	add("obs.trace_overhead_ratio", "x", "lower")
	add("obs.span_evictions", "count", "lower")

	add("go.mallocs_per_segment", "count", "lower")
	add("go.alloc_bytes_per_segment", "B", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_pause_ms", "ms", "lower")

	add("bench.raw_ns_per_segment", "ns", "lower")
	add("bench.ref_ns_med", "ns", "lower")
	add("bench.ref_ns_spread", "ratio", "lower")
	add("bench.slices", "count", "higher")
	add("bench.slice_iqr_ratio", "ratio", "lower")
	add("bench.sim_digest", "hash", "higher")
	return ms
}
