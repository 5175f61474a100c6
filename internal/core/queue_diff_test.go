package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/tcp"
)

// The differential harness drives the sequence-indexed ring and a byte map
// (queue_oracle_test.go) through one programme and demands the same Len,
// Floor and ready bytes after every step, and the same released stream at
// the end. The oracle has no span limit, so the harness clips what it feeds
// it the way Insert documents, and checks the count.

// runQueueProgramme decodes prog into operations, six bytes each: a kind,
// a 16-bit position, a 16-bit length and a payload salt.
func runQueueProgramme(t *testing.T, floor tcp.Seq, prog []byte) {
	t.Helper()
	q, o := newByteQueue(floor), newOracleQueue(floor)
	defer q.Release()
	tail := floor // highest sequence number inserted so far
	var wrap, gotStream, wantStream []byte

	check := func(step int, what string) {
		t.Helper()
		if q.Len() != o.Len() || q.Floor() != o.Floor() {
			t.Fatalf("step %d (%s): Len/Floor = %d/%d, oracle %d/%d", step, what, q.Len(), q.Floor(), o.Len(), o.Floor())
		}
		want := o.Contiguous()
		if q.Ready() != len(want) {
			t.Fatalf("step %d (%s): Ready = %d, oracle holds %d at the floor", step, what, q.Ready(), len(want))
		}
		if len(want) > 0 && !bytes.Equal(q.Peek(len(want), &wrap), want) {
			t.Fatalf("step %d (%s): ready bytes differ from the oracle's", step, what)
		}
	}

	for step := 0; len(prog) >= 6; step, prog = step+1, prog[6:] {
		kind, v, l, salt := prog[0], int(binary.LittleEndian.Uint16(prog[1:])), int(binary.LittleEndian.Uint16(prog[3:])), prog[5]
		switch kind % 8 {
		default: // insert
			n := l%3000 + 1
			var seq tcp.Seq
			switch kind / 8 % 4 {
			case 0: // in order, at the tail
				seq = tail
			case 1: // around the tail: overlaps on either side, gaps, reversed fills
				seq = tail.Add(v%8192 - 4096)
			case 2: // anywhere from below the floor to past the span limit
				seq = q.Floor().Add(v%70000 - 2000)
			case 3: // ending within two bytes of the span limit
				seq = q.Floor().Add(queueSpan - n + v%5 - 2)
			}
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = salt + byte(i*7) + byte(step)
			}
			wantClipped := 0
			fed := payload
			if over := seq.Add(n).Diff(q.Floor().Add(queueSpan)); over > 0 && seq.Geq(q.Floor()) {
				wantClipped = min(over, n)
				fed = payload[:n-wantClipped]
			}
			if got := q.Insert(seq, payload); got != wantClipped {
				t.Fatalf("step %d: Insert(floor%+d, %d) clipped %d, want %d", step, seq.Diff(q.Floor()), n, got, wantClipped)
			}
			o.Insert(seq, fed)
			if end := seq.Add(len(fed)); end.Greater(tail) {
				tail = end
			}
			check(step, "insert")
		case 5, 6: // release as pump does: up to one MSS of what is ready
			n := min(q.Ready(), 1+l%1460)
			if n == 0 {
				continue
			}
			gotStream = append(gotStream, q.Peek(n, &wrap)...)
			wantStream = append(wantStream, o.Contiguous()[:n]...)
			q.Advance(n)
			o.Advance(n)
			if q.Len() == 0 {
				q.Release() // as the bridge parks a drained queue
			}
			check(step, "release")
		case 7: // advance whatever is there, as the degraded drain does to sq
			n := l % 4096
			q.Advance(n)
			o.Advance(n)
			check(step, "advance")
		}
		if tail.Less(q.Floor()) {
			tail = q.Floor()
		}
	}
	if !bytes.Equal(gotStream, wantStream) {
		t.Fatalf("released streams differ (%d vs %d bytes)", len(gotStream), len(wantStream))
	}
}

// TestByteQueueAgainstOracle runs seeded random programmes from floors all
// over the sequence space, a share of them within 64 KB of the 2^32 wrap.
// Returned rings are poisoned, so a stale alias shows as a byte mismatch.
func TestByteQueueAgainstOracle(t *testing.T) {
	netbuf.SetPoison(true)
	defer netbuf.SetPoison(false)
	rng := rand.New(rand.NewSource(14))
	for trial := range 1500 {
		floor := tcp.Seq(rng.Uint32())
		if trial%3 == 0 {
			floor = tcp.Seq(0).Add(-rng.Intn(queueSpan))
		}
		prog := make([]byte, 6*(20+rng.Intn(200)))
		rng.Read(prog)
		runQueueProgramme(t, floor, prog)
	}
}

// TestByteQueueWrapAtEveryOffset slides a standing queue through a 4 KiB
// ring from every starting offset, so the wrap point falls on every byte
// position of an inserted and of a released segment.
func TestByteQueueWrapAtEveryOffset(t *testing.T) {
	const ring, mss = 4096, 1452
	stream := make([]byte, 3*ring)
	rand.New(rand.NewSource(15)).Read(stream)
	var wrap []byte
	for start := range ring {
		floor := tcp.Seq(0xFFFFE000).Add(start) // every run crosses 2^32 too
		q := newByteQueue(floor)
		in, out := 0, 0
		for out < len(stream) {
			for in < len(stream) && in-out+mss <= ring {
				n := min(mss, len(stream)-in)
				q.Insert(floor.Add(in), stream[in:in+n])
				in += n
			}
			if q.Cap() != ring {
				t.Fatalf("start %d: ring is %d bytes, the test wants it at %d", start, q.Cap(), ring)
			}
			n := min(q.Ready(), mss)
			if got := q.Peek(n, &wrap); !bytes.Equal(got, stream[out:out+n]) {
				t.Fatalf("start %d: bytes at stream offset %d differ", start, out)
			}
			q.Advance(n)
			out += n
		}
		if q.Len() != 0 {
			t.Fatalf("start %d: %d bytes left", start, q.Len())
		}
		q.Release()
	}
}

// TestByteQueueSpanLimit: a span of exactly queueSpan is held whole in the
// largest class; one byte further is clipped, and a segment wholly beyond
// the limit takes no storage at all.
func TestByteQueueSpanLimit(t *testing.T) {
	q := newByteQueue(1000)
	defer q.Release()
	payload := make([]byte, 1452)
	if c := q.Insert(tcp.Seq(1000).Add(queueSpan-1452), payload); c != 0 || q.Len() != 1452 || q.Cap() != queueSpan {
		t.Fatalf("span at the limit: clipped %d, Len %d, ring %d", c, q.Len(), q.Cap())
	}
	if c := q.Insert(tcp.Seq(1000).Add(queueSpan-1), payload[:2]); c != 1 || q.Len() != 1452 {
		t.Fatalf("span one past the limit: clipped %d (want 1), Len %d", c, q.Len())
	}
	far := newByteQueue(1000)
	if c := far.Insert(tcp.Seq(1000).Add(1<<30), payload); c != len(payload) || far.Len() != 0 || far.Cap() != 0 {
		t.Fatalf("far-ahead segment: clipped %d, Len %d, ring %d bytes", c, far.Len(), far.Cap())
	}
}

// FuzzByteQueue searches programmes for a divergence from the oracle.
func FuzzByteQueue(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	for _, floor := range []uint32{0, 1 << 31, 0xFFFFFF00, 0xFFFF8000} {
		prog := make([]byte, 6*64)
		rng.Read(prog)
		f.Add(floor, prog)
	}
	// In-order inserts and releases only: the steady state.
	f.Add(uint32(7), bytes.Repeat([]byte{0, 0, 0, 0xAB, 5, 1, 5, 0, 0, 0xAB, 5, 2}, 40))
	f.Fuzz(func(t *testing.T, floor uint32, prog []byte) {
		runQueueProgramme(t, tcp.Seq(floor), prog)
	})
}
