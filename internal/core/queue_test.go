package core

import (
	"bytes"
	"math/rand"
	"testing"

	"tcpfailover/internal/tcp"
)

// byteQueue is tcp.ByteRing as the bridge uses it, as one of Figure 2's
// output queues: every insert bounded by queueSpan.
type byteQueue struct{ tcp.ByteRing }

func newByteQueue(floor tcp.Seq) *byteQueue {
	q := new(byteQueue)
	q.Reset(floor)
	return q
}

func (q *byteQueue) Insert(seq tcp.Seq, payload []byte) int {
	return q.ByteRing.Insert(seq, payload, queueSpan)
}

// contiguous returns a copy of the bytes ready at the floor, nil if none.
func (q *byteQueue) contiguous() []byte {
	n := q.Ready()
	if n == 0 {
		return nil
	}
	var wrap []byte
	return bytes.Clone(q.Peek(n, &wrap))
}

func TestByteQueueFigure2Example(t *testing.T) {
	// The paper's Figure 2: the primary queue holds (translated) bytes
	// 21-24; the secondary's segment carries 23-26. Matching releases
	// 23-24; 25-26 remain in the secondary queue.
	pq := newByteQueue(23) // bytes 21-22 were already sent (floor = 23)
	sq := newByteQueue(23)

	pq.Insert(21, []byte{21, 22, 23, 24}) // trimmed below floor
	sq.Insert(23, []byte{23, 24, 25, 26})

	pb := pq.contiguous()
	sb := sq.contiguous()
	n := min(len(pb), len(sb))
	if n != 2 || pb[0] != 23 || pb[1] != 24 {
		t.Fatalf("matched %d bytes %v, want bytes 23-24", n, pb[:n])
	}
	pq.Advance(n)
	sq.Advance(n)
	if pq.Len() != 0 {
		t.Errorf("primary queue holds %d bytes, want 0", pq.Len())
	}
	if sq.Len() != 2 || !bytes.Equal(sq.contiguous(), []byte{25, 26}) {
		t.Errorf("secondary queue holds %v, want bytes 25-26", sq.contiguous())
	}
}

func TestByteQueueTrimsBelowFloor(t *testing.T) {
	q := newByteQueue(100)
	q.Insert(90, []byte("0123456789abcdef")) // covers 90..106
	if got := q.contiguous(); string(got) != "abcdef" {
		t.Fatalf("Contiguous = %q", got)
	}
	q.Insert(50, []byte("old")) // entirely below floor
	if q.Len() != 6 {
		t.Errorf("Len = %d after stale insert", q.Len())
	}
	// The floor passes bytes held beyond a gap: they go, and what the floor
	// lands inside of becomes ready from there.
	q.Insert(110, []byte("stale"))
	q.Insert(120, []byte("fresh"))
	q.Advance(22)
	if got := q.contiguous(); string(got) != "esh" || q.Len() != 3 {
		t.Errorf("after advancing past a held span: ready %q, Len %d", got, q.Len())
	}
}

func TestByteQueueGapBlocksContiguous(t *testing.T) {
	q := newByteQueue(100)
	q.Insert(105, []byte("later"))
	if got := q.contiguous(); got != nil {
		t.Fatalf("Contiguous across gap = %q", got)
	}
	q.Insert(100, []byte("early"))
	if got := q.contiguous(); string(got) != "earlylater" {
		t.Fatalf("Contiguous = %q", got)
	}
}

func TestByteQueueAdvancePartialBlock(t *testing.T) {
	q := newByteQueue(0)
	q.Insert(0, []byte("abcdefgh"))
	q.Advance(3)
	if q.Floor() != 3 {
		t.Errorf("floor = %d", q.Floor())
	}
	if got := q.contiguous(); string(got) != "defgh" {
		t.Errorf("Contiguous = %q", got)
	}
}

// TestByteQueueOverlapPrefersExisting: the first copy of a byte wins, whether
// the second overlaps the ready run, a span held beyond a gap, or repeats a
// segment exactly (a TCP receiver's rule for retransmissions, too).
func TestByteQueueOverlapPrefersExisting(t *testing.T) {
	q := newByteQueue(0)
	q.Insert(0, []byte("AAAA"))
	q.Insert(0, []byte("bbbbcc")) // overlap keeps AAAA, appends cc
	if got := q.contiguous(); string(got) != "AAAAcc" {
		t.Errorf("Contiguous = %q, want AAAAcc", got)
	}
	q.Insert(10, []byte("DDDD"))
	q.Insert(10, []byte("dddd"))   // exact duplicate beyond the gap
	q.Insert(8, []byte("eeeeeee")) // overlaps [10,14) from both sides
	q.Insert(6, []byte("ff"))
	if got := q.contiguous(); string(got) != "AAAAccffeeDDDDe" {
		t.Errorf("Contiguous = %q, want AAAAccffeeDDDDe", got)
	}
}

// TestByteQueueMatchingProperty: two queues fed the same deterministic
// stream chopped into different random segmentations always release the
// stream exactly once, in order — the heart of the bridge's correctness.
func TestByteQueueMatchingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 100 {
		stream := make([]byte, 2000+rng.Intn(3000))
		rng.Read(stream)
		base := tcp.Seq(rng.Uint32())

		chop := func() [][2]int {
			var cuts [][2]int
			at := 0
			for at < len(stream) {
				n := 1 + rng.Intn(1460)
				if at+n > len(stream) {
					n = len(stream) - at
				}
				cuts = append(cuts, [2]int{at, at + n})
				at += n
			}
			// Shuffle with some duplication, simulating reordering and
			// retransmission.
			rng.Shuffle(len(cuts), func(i, j int) { cuts[i], cuts[j] = cuts[j], cuts[i] })
			cuts = append(cuts, cuts[:len(cuts)/3]...)
			return cuts
		}

		pq := newByteQueue(base)
		sq := newByteQueue(base)
		pcuts, scuts := chop(), chop()
		var released []byte
		pump := func() {
			for {
				pb, sb := pq.contiguous(), sq.contiguous()
				n := min(len(pb), len(sb))
				if n == 0 {
					return
				}
				if !bytes.Equal(pb[:n], sb[:n]) {
					t.Fatalf("trial %d: queues disagree", trial)
				}
				released = append(released, sb[:n]...)
				pq.Advance(n)
				sq.Advance(n)
			}
		}
		for i := 0; i < max(len(pcuts), len(scuts)); i++ {
			if i < len(pcuts) {
				c := pcuts[i]
				pq.Insert(base.Add(c[0]), stream[c[0]:c[1]])
			}
			if i < len(scuts) {
				c := scuts[i]
				sq.Insert(base.Add(c[0]), stream[c[0]:c[1]])
			}
			pump()
		}
		if !bytes.Equal(released, stream) {
			t.Fatalf("trial %d: released %d bytes, want %d (equal=%v)",
				trial, len(released), len(stream), bytes.Equal(released, stream))
		}
		if pq.Len() != 0 || sq.Len() != 0 {
			t.Fatalf("trial %d: residual bytes p=%d s=%d", trial, pq.Len(), sq.Len())
		}
	}
}
