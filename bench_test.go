package tcpfailover_test

// One testing.B benchmark per table and figure of the paper's section 9
// (plus the failover-latency extension). The simulation runs in virtual
// time, so wall-clock ns/op measures simulator cost; the numbers the paper
// reports are attached as custom metrics (virtual microseconds / KB/s) via
// b.ReportMetric. The cmd/failover-bench tool prints the same experiments
// as full paper-style tables.

import (
	"testing"
	"time"

	"tcpfailover/internal/bench"
)

// E1 — connection setup time (paper: std 294 us, failover 505 us median).
func BenchmarkConnectionSetupStandard(b *testing.B) {
	benchConnSetup(b, bench.Standard)
}

func BenchmarkConnectionSetupFailover(b *testing.B) {
	benchConnSetup(b, bench.Failover)
}

func benchConnSetup(b *testing.B, mode bench.Mode) {
	for b.Loop() {
		r, err := bench.ConnectionSetup(mode, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Median.Microseconds()), "virt-us/conn")
	}
}

// E2 — Figure 3, client-to-server send time (one representative size per
// region: buffered and wire-bound).
func BenchmarkClientToServerSend32KStandard(b *testing.B) {
	benchC2S(b, bench.Standard, 32*1024)
}

func BenchmarkClientToServerSend32KFailover(b *testing.B) {
	benchC2S(b, bench.Failover, 32*1024)
}

func BenchmarkClientToServerSend1MStandard(b *testing.B) {
	benchC2S(b, bench.Standard, 1024*1024)
}

func BenchmarkClientToServerSend1MFailover(b *testing.B) {
	benchC2S(b, bench.Failover, 1024*1024)
}

func benchC2S(b *testing.B, mode bench.Mode, size int64) {
	for b.Loop() {
		pts, err := bench.ClientToServerSend(mode, []int64{size}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].Median.Microseconds()), "virt-us/msg")
	}
	b.SetBytes(size)
}

// E3 — Figure 4, server-to-client transfer time.
func BenchmarkServerToClient64KStandard(b *testing.B) {
	benchS2C(b, bench.Standard, 64*1024)
}

func BenchmarkServerToClient64KFailover(b *testing.B) {
	benchS2C(b, bench.Failover, 64*1024)
}

func benchS2C(b *testing.B, mode bench.Mode, size int64) {
	for b.Loop() {
		pts, err := bench.ServerToClientTransfer(mode, []int64{size}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[0].Median.Microseconds()), "virt-us/reply")
	}
	b.SetBytes(size)
}

// E4 — Figure 5, sustained stream rates (scaled-down streams per iteration;
// the full 100 MB run lives in cmd/failover-bench).
func BenchmarkStreamRateStandard(b *testing.B) {
	benchStream(b, bench.Standard)
}

func BenchmarkStreamRateFailover(b *testing.B) {
	benchStream(b, bench.Failover)
}

func benchStream(b *testing.B, mode bench.Mode) {
	const size = 4 * 1024 * 1024
	for b.Loop() {
		r, err := bench.StreamRates(mode, size)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SendKBps, "virt-send-KB/s")
		b.ReportMetric(r.RecvKBps, "virt-recv-KB/s")
	}
	b.SetBytes(2 * size)
}

// E5 — Figure 6, FTP over the WAN (one rep of the full file set).
func BenchmarkFTPOverWANStandard(b *testing.B) {
	benchFTP(b, bench.Standard)
}

func BenchmarkFTPOverWANFailover(b *testing.B) {
	benchFTP(b, bench.Failover)
}

func benchFTP(b *testing.B, mode bench.Mode) {
	for b.Loop() {
		pts, err := bench.FTPRates(mode, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest file's get rate, the paper's steady-state row.
		b.ReportMetric(pts[len(pts)-1].GetKBps, "virt-get-KB/s")
	}
}

// E6 — extension: failover latency.
func BenchmarkFailoverLatency(b *testing.B) {
	for b.Loop() {
		r, err := bench.FailoverLatency(1)
		if err != nil {
			b.Fatal(err)
		}
		if !r.AllIntact {
			b.Fatal("stream damaged across failover")
		}
		b.ReportMetric(float64(r.StallMedian.Milliseconds()), "virt-stall-ms")
	}
}

// E12 — extension: open-loop SLO (one failover crash cell at moderate load).
func BenchmarkSLOFailoverCrash(b *testing.B) {
	for b.Loop() {
		pts, err := bench.SLO([]float64{60}, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Mode == bench.Failover && p.Crash {
				b.ReportMetric(float64(p.P99.Microseconds()), "virt-p99-us")
				b.ReportMetric(p.GoodputKBps, "virt-goodput-KB/s")
			}
		}
	}
}
