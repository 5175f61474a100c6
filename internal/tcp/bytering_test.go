package tcp

import "testing"

// The ring as a connection's buffers use it: inserts at the end of the run
// bounded by a small logical capacity, copies out at an offset, advances.
// The differential harnesses are in recv_oracle_test.go (a Conn against a
// model of its receive and send buffers) and internal/core/queue_diff_test.go
// (the ring as the bridge's match queue against a model of that queue).

func ringAt(floor Seq) *ByteRing {
	r := new(ByteRing)
	r.Reset(floor)
	return r
}

func ringString(r *ByteRing) string {
	p := make([]byte, r.Ready())
	r.CopyAt(0, p)
	return string(p)
}

func TestRingBasicOps(t *testing.T) {
	r := ringAt(0xFFFFFFFC) // the eight bytes straddle 2^32
	if r.Cap() != 0 || r.Len() != 0 || r.Ready() != 0 {
		t.Fatalf("fresh ring: storage=%d len=%d ready=%d", r.Cap(), r.Len(), r.Ready())
	}
	if c := r.Insert(r.End(), []byte("abcde"), 8); c != 0 {
		t.Fatalf("Insert clipped %d, want 0", c)
	}
	if c := r.Insert(r.End(), []byte("fghij"), 8); c != 2 {
		t.Fatalf("overflow Insert clipped %d, want 2 (capacity 8)", c)
	}
	got := make([]byte, 4)
	if n := r.CopyAt(0, got); n != 4 || string(got) != "abcd" {
		t.Fatalf("CopyAt = %d %q", n, got[:n])
	}
	r.Advance(4)
	// The capacity is measured from the floor: room again at the end.
	if c := r.Insert(r.End(), []byte("wxyz"), 8); c != 0 {
		t.Fatalf("Insert after Advance clipped %d, want 0", c)
	}
	if s := ringString(r); s != "efghwxyz" || r.Floor() != 0 {
		t.Fatalf("holds %q from %d, want efghwxyz from 0", s, r.Floor())
	}
	if c := r.Insert(r.End(), []byte("!"), 8); c != 1 || r.Len() != 8 {
		t.Fatalf("Insert into a full ring clipped %d, Len %d", c, r.Len())
	}
}

func TestRingPeekDoesNotConsume(t *testing.T) {
	r := ringAt(7)
	r.Insert(7, []byte("hello world"), 16)
	p := make([]byte, 5)
	if n := r.CopyAt(6, p); n != 5 || string(p) != "world" {
		t.Fatalf("CopyAt(6) = %d %q", n, p[:n])
	}
	if r.Len() != 11 {
		t.Errorf("CopyAt consumed data: len=%d", r.Len())
	}
	if n := r.CopyAt(11, p); n != 0 {
		t.Errorf("CopyAt past the end = %d, want 0", n)
	}
	if n := r.CopyAt(12, nil); n != 0 { // where a bare FIN's sequence number points
		t.Errorf("CopyAt beyond the end = %d, want 0", n)
	}
	r.Advance(6)
	if n := r.CopyAt(0, p); n != 5 || string(p) != "world" {
		t.Fatalf("after Advance, CopyAt(0) = %q", p[:n])
	}
}

// TestRingConsumeClamps: advancing past everything held leaves an empty ring
// at the new floor, not a negative length.
func TestRingConsumeClamps(t *testing.T) {
	r := ringAt(0)
	r.Insert(0, []byte("ab"), 8)
	r.Advance(100)
	if r.Len() != 0 || r.Ready() != 0 || r.Floor() != 100 || r.End() != 100 {
		t.Errorf("after over-advance: len=%d ready=%d floor=%d end=%d", r.Len(), r.Ready(), r.Floor(), r.End())
	}
	if c := r.Insert(100, []byte("cd"), 8); c != 0 || ringString(r) != "cd" {
		t.Errorf("insert at the new floor: clipped %d, holds %q", c, ringString(r))
	}
}

// TestRingRelease: a released ring has given its storage back, holds nothing
// — bytes beyond a gap included — keeps its floor, and is usable afterwards.
func TestRingRelease(t *testing.T) {
	r := ringAt(40)
	r.Insert(40, []byte("abcdefgh"), 64)
	r.Insert(50, []byte("xy"), 64)
	r.Advance(3)
	if r.Cap() == 0 || r.Len() != 7 {
		t.Fatalf("set-up: storage %d, Len %d", r.Cap(), r.Len())
	}
	r.Release()
	if r.Cap() != 0 || r.Len() != 0 || r.Floor() != 43 || r.End() != 43 {
		t.Fatalf("released ring: storage=%d len=%d floor=%d end=%d", r.Cap(), r.Len(), r.Floor(), r.End())
	}
	if n := r.CopyAt(0, make([]byte, 8)); n != 0 {
		t.Fatalf("CopyAt on a released ring = %d", n)
	}
	r.Advance(1) // must not index the zero-length buffer
	if c := r.Insert(44, []byte("again"), 64); c != 0 || ringString(r) != "again" {
		t.Fatalf("released ring did not take a new insert: %q", ringString(r))
	}
}

// TestRingDrop: releasing twice has nothing to return the second time and
// must not reach the store's double-return panic.
func TestRingDrop(t *testing.T) {
	r := ringAt(0)
	r.Insert(0, []byte("unsent"), 64)
	r.Release()
	r.Release()
	if r.Cap() != 0 || r.Len() != 0 {
		t.Fatalf("dropped ring: storage %d, len %d", r.Cap(), r.Len())
	}
}

// TestRingSpanBoxLifecycle: in-order inserts, overlaps of the run included,
// leave the out-of-order list's box nil. The first insert beyond a gap
// takes it, later gaps reuse it, and Release drops it. Once it exists, a
// gap filled and drained allocates nothing.
func TestRingSpanBoxLifecycle(t *testing.T) {
	r := ringAt(0)
	r.Insert(0, []byte("abcd"), 64)
	r.Insert(2, []byte("cdef"), 64)
	if r.ooo != nil {
		t.Fatal("in-order inserts took a span box")
	}
	r.Insert(10, []byte("kl"), 64)
	box := r.ooo
	if box == nil || len(*box) != 1 {
		t.Fatalf("an insert beyond a gap left box %v", box)
	}
	r.Insert(6, []byte("ghij"), 64)
	r.Insert(20, []byte("uv"), 64)
	if r.ooo != box || ringString(r) != "abcdefghijkl" || r.Len() != 14 {
		t.Fatalf("a later gap: box %p (was %p), run %q, Len %d", r.ooo, box, ringString(r), r.Len())
	}
	r.Advance(r.Ready())
	cycle := func() {
		f := r.Floor()
		r.Insert(f.Add(8), []byte("yz"), 64)
		r.Insert(f, []byte("qrstuvwx"), 64)
		r.Advance(r.Ready())
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 || r.ooo != box {
		t.Fatalf("a gap filled and drained allocates %.1f times; box %p, was %p", allocs, r.ooo, box)
	}
	r.Release()
	if r.ooo != nil {
		t.Fatal("Release kept the span box")
	}
}
