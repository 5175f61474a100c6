package core

import (
	"testing"

	"tcpfailover/internal/tcp"
)

// BenchmarkByteQueueMatch measures the primary bridge's per-byte matching
// cost: both replicas' streams inserted with different segmentations and
// drained through Ready/Peek/Advance, the Figure 2 pipeline.
func BenchmarkByteQueueMatch(b *testing.B) {
	const chunkP, chunkS = 1460, 1452
	payloadP := make([]byte, chunkP)
	payloadS := make([]byte, chunkS)
	var wrap []byte
	b.ReportAllocs()
	for b.Loop() {
		pq := newByteQueue(0)
		sq := newByteQueue(0)
		var pSeq, sSeq tcp.Seq
		released := 0
		for released < 64*1024 {
			pq.Insert(pSeq, payloadP)
			pSeq = pSeq.Add(chunkP)
			sq.Insert(sSeq, payloadS)
			sSeq = sSeq.Add(chunkS)
			for {
				n := min(pq.Ready(), sq.Ready())
				if n == 0 {
					break
				}
				sink = sq.Peek(n, &wrap)
				pq.Advance(n)
				sq.Advance(n)
				released += n
			}
		}
		pq.Release()
		sq.Release()
	}
	b.SetBytes(64 * 1024)
}

// sink keeps the benchmarks' reads alive.
var sink []byte

// BenchmarkByteQueueOutOfOrder measures insertion with reordering, the
// queue's worst case.
func BenchmarkByteQueueOutOfOrder(b *testing.B) {
	payload := make([]byte, 1452)
	b.ReportAllocs()
	for b.Loop() {
		q := newByteQueue(0)
		// Insert 32 segments in reverse, then drain.
		for i := 31; i >= 0; i-- {
			q.Insert(tcp.Seq(i*1452), payload)
		}
		q.Advance(32 * 1452)
		q.Release()
	}
	b.SetBytes(32 * 1452)
}

// BenchmarkByteQueueSlide is the stream-recv steady state: 60 KB standing
// in the queue, one MSS in at the tail and one out at the floor per
// operation, the floor sliding through the ring and across its wrap point.
// Must report 0 allocs/op.
func BenchmarkByteQueueSlide(b *testing.B) {
	const mss = 1452
	payload := make([]byte, mss)
	q := newByteQueue(0)
	var wrap []byte
	tail := tcp.Seq(0)
	for range 60 * 1024 / mss {
		q.Insert(tail, payload)
		tail = tail.Add(mss)
	}
	wrap = make([]byte, 0, mss) // sized outside the loop, as the bridge's is after one wrap
	b.ReportAllocs()
	for b.Loop() {
		q.Insert(tail, payload)
		tail = tail.Add(mss)
		sink = q.Peek(mss, &wrap)
		q.Advance(mss)
	}
	b.SetBytes(mss)
}
