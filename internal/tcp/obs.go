package tcp

import "tcpfailover/internal/obs"

// stackMetrics are the stack's pre-resolved observability handles. The
// struct is always populated — with discard handles when no registry is
// attached — so the hot paths increment unconditionally: no nil checks,
// no map lookups, no allocation.
type stackMetrics struct {
	segmentsIn       obs.Counter
	segmentsOut      obs.Counter
	badChecksums     obs.Counter
	retransmissions  obs.Counter
	dupAcks          obs.Counter
	fastRetransmits  obs.Counter
	zeroWindowStalls obs.Counter
	ringGrows        obs.Counter
}

func newStackMetrics(reg *obs.Registry, host string) stackMetrics {
	return stackMetrics{
		segmentsIn:       reg.Counter(obs.HostSeries("tcp_segments_in_total", host)),
		segmentsOut:      reg.Counter(obs.HostSeries("tcp_segments_out_total", host)),
		badChecksums:     reg.Counter(obs.HostSeries("tcp_bad_checksums_total", host)),
		retransmissions:  reg.Counter(obs.HostSeries("tcp_retransmissions_total", host)),
		dupAcks:          reg.Counter(obs.HostSeries("tcp_dup_acks_total", host)),
		fastRetransmits:  reg.Counter(obs.HostSeries("tcp_fast_retransmits_total", host)),
		zeroWindowStalls: reg.Counter(obs.HostSeries("tcp_zero_window_stalls_total", host)),
		ringGrows:        reg.Counter(obs.HostSeries("tcp_ring_grows_total", host)),
	}
}

// AttachObs resolves the stack's metric handles against reg, labeled with
// the host name. Call once at scenario build time.
func (s *Stack) AttachObs(reg *obs.Registry, host string) {
	s.m = newStackMetrics(reg, host)
}

// AttachSpans installs a per-connection lifecycle span recorder on the
// stack. Call at scenario build time, before traffic; pass nil to detach.
// The stack marks SYN-sent on dial, established/first-byte/progress from
// the input path, and attributes retransmissions and zero-window stalls to
// the owning flow's span.
func (s *Stack) AttachSpans(r *obs.SpanRecorder) {
	s.spans = r
}
