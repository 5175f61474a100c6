package core

import "tcpfailover/internal/obs"

// primaryMetrics are the primary bridge's pre-resolved observability
// handles. Always populated — with discard handles until AttachObs — so the
// merge path updates them unconditionally without branching or allocating.
type primaryMetrics struct {
	queueBytes       obs.Gauge   // bytes parked in both output queues across all conns
	matchedBytes     obs.Counter // bytes matched between the replica streams
	releasedBytes    obs.Counter // payload bytes released toward the client
	seqTranslations  obs.Counter // Δseq applications (seq or ack rewrites)
	badChecksumDrops obs.Counter // diverted segments dropped by verifyDiverted
	seqInvalidDrops  obs.Counter // segments dropped by in-window validation
	flowEvictions    obs.Counter // tracked connections evicted by the LRU cap
	malformedDrops   obs.Counter // frames with an inconsistent data offset

	// divergences counts connections reset because the replicas' bytes
	// differed; its series is attached to reg at the first, for the reason
	// secondaryMetrics gives for bridge_takeover_errors_total.
	divergences obs.Counter
	reg         *obs.Registry
	host        string
}

// countDivergence counts one connection reset by a divergence.
func (m *primaryMetrics) countDivergence() {
	if m.divergences.Value() == 0 {
		m.divergences = m.reg.Counter(obs.HostSeries("bridge_divergences_total", m.host))
	}
	m.divergences.Inc()
}

func newPrimaryMetrics(reg *obs.Registry, host string) primaryMetrics {
	return primaryMetrics{
		queueBytes:       reg.Gauge(obs.HostSeries("bridge_queue_bytes", host)),
		matchedBytes:     reg.Counter(obs.HostSeries("bridge_bytes_matched_total", host)),
		releasedBytes:    reg.Counter(obs.HostSeries("bridge_bytes_released_total", host)),
		seqTranslations:  reg.Counter(obs.HostSeries("bridge_seq_translations_total", host)),
		badChecksumDrops: reg.Counter(obs.HostSeries("bridge_bad_checksum_drops_total", host)),
		seqInvalidDrops:  reg.Counter(obs.HostSeries("bridge_seq_invalid_drops_total", host)),
		flowEvictions:    reg.Counter(obs.HostSeries("bridge_flow_evictions_total", host)),
		malformedDrops:   reg.Counter(obs.HostSeries("bridge_malformed_drops_total", host)),
		divergences:      (*obs.Registry)(nil).Counter(""),
		reg:              reg,
		host:             host,
	}
}

// AttachObs resolves the bridge's metric handles against reg, labeled with
// the host name. Call at scenario build time, before traffic flows: the
// counters are the source of truth behind Stats(), and the queue gauge
// tracks deltas, so attaching mid-stream would lose history.
func (b *PrimaryBridge) AttachObs(reg *obs.Registry, host string) {
	b.m = newPrimaryMetrics(reg, host)
}

// secondaryMetrics are the secondary bridge's pre-resolved handles.
type secondaryMetrics struct {
	snoopedIn      obs.Counter
	divertedOut    obs.Counter
	flowEvictions  obs.Counter // flow-cache entries evicted by the LRU cap
	malformedDrops obs.Counter // snooped frames with an inconsistent offset

	// reg and host attach bridge_takeover_errors_total at the first failed
	// takeover step rather than up front: a registry dump lists every
	// attached series, zero or not, and a healthy run's dump is compared
	// byte for byte across revisions.
	reg  *obs.Registry
	host string
}

// countTakeoverErrors adds n failed takeover steps to the series.
func (m *secondaryMetrics) countTakeoverErrors(n int) {
	if n > 0 {
		m.reg.Counter(obs.HostSeries("bridge_takeover_errors_total", m.host)).Add(int64(n))
	}
}

func newSecondaryMetrics(reg *obs.Registry, host string) secondaryMetrics {
	return secondaryMetrics{
		reg:            reg,
		host:           host,
		snoopedIn:      reg.Counter(obs.HostSeries("bridge_snooped_in_total", host)),
		divertedOut:    reg.Counter(obs.HostSeries("bridge_diverted_out_total", host)),
		flowEvictions:  reg.Counter(obs.HostSeries("bridge_flow_evictions_total", host)),
		malformedDrops: reg.Counter(obs.HostSeries("bridge_malformed_drops_total", host)),
	}
}

// AttachObs resolves the bridge's metric handles against reg, labeled with
// the host name — and its matcher's, which shares the host's eviction and
// malformed-drop series.
func (b *SecondaryBridge) AttachObs(reg *obs.Registry, host string) {
	b.m = newSecondaryMetrics(reg, host)
	if b.matcher != nil {
		b.matcher.AttachObs(reg, host)
	}
}
