package flowtab

import (
	"runtime"
	"testing"
	"unsafe"
)

type rec struct {
	id   int
	link int32
}

func TestSlabAllocFreeReuse(t *testing.T) {
	s := &Slab[rec]{}
	a := s.Alloc()
	b := s.Alloc()
	if a == b {
		t.Fatalf("Alloc returned the same slot twice: %d", a)
	}
	s.At(a).id = 1
	s.At(b).id = 2
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	s.Free(a)
	if s.Len() != 1 {
		t.Fatalf("Len() = %d after Free, want 1", s.Len())
	}
	c := s.Alloc()
	if c != a {
		t.Fatalf("Alloc did not reuse the freed slot: got %d, want %d", c, a)
	}
	if s.At(c).id != 0 {
		t.Fatalf("reused slot not zeroed: id = %d", s.At(c).id)
	}
	if s.Cap() != 2 {
		t.Fatalf("Cap() = %d, want 2 (reuse must not grow the arena)", s.Cap())
	}
}

func TestSlabChurnStaysBounded(t *testing.T) {
	var s Slab[rec]
	// Allocate and free in waves; the arena must not exceed the peak
	// concurrent live count.
	const waves, width = 100, 64
	for w := 0; w < waves; w++ {
		idx := make([]uint32, width)
		for i := range idx {
			idx[i] = s.Alloc()
			s.At(idx[i]).id = w*width + i
		}
		for _, i := range idx {
			s.Free(i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d after balanced churn", s.Len())
	}
	if s.Cap() > width {
		t.Fatalf("Cap() = %d after churn with peak %d live", s.Cap(), width)
	}
}

func TestSlabRangeOrderAndLiveness(t *testing.T) {
	var s Slab[rec]
	var idx []uint32
	for i := 0; i < 10; i++ {
		j := s.Alloc()
		s.At(j).id = i
		idx = append(idx, j)
	}
	s.Free(idx[3])
	s.Free(idx[7])
	var seen []int
	s.Range(func(i uint32, r *rec) { seen = append(seen, r.id) })
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(seen) != len(want) {
		t.Fatalf("Range visited %d slots, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Range order: got %v, want %v", seen, want)
		}
	}
}

// TestSlabPointersStable: records live in fixed chunks that never move, so
// a pointer from At keeps pointing at its record while the slab grows by
// three chunks, and Range still walks the slots in index order.
func TestSlabPointersStable(t *testing.T) {
	var s Slab[rec]
	first := s.Alloc()
	p := s.At(first)
	p.id = 42
	for i := 1; i < 4*slabChunk; i++ {
		s.At(s.Alloc()).id = 42 + i
	}
	if len(s.chunks) != 4 || s.Cap() != 4*slabChunk {
		t.Fatalf("%d chunks, Cap %d; want 4 and %d", len(s.chunks), s.Cap(), 4*slabChunk)
	}
	if p != s.At(first) || p.id != 42 {
		t.Fatalf("the first record moved or changed: %p holds %d, At gives %p", p, p.id, s.At(first))
	}
	want := 42
	s.Range(func(i uint32, r *rec) {
		if r.id != want || r != s.At(i) {
			t.Fatalf("Range reached slot %d holding %d, want %d", i, r.id, want)
		}
		want++
	})
	if want != 42+4*slabChunk {
		t.Fatalf("Range visited %d slots, want %d", want-42, 4*slabChunk)
	}
}

// TestSlabOneRecordHoldsOneChunk: a slab holding one record allocates one
// 32-record chunk, its directory and nothing else. Most bridges and span
// registries in a run carry a handful of flows, and each pays a whole chunk:
// 256-record chunks cost stream-recv's heap 17 %.
func TestSlabOneRecordHoldsOneChunk(t *testing.T) {
	if size := unsafe.Sizeof(chunk[rec]{}); size != 32*(16+4) {
		t.Fatalf("a chunk of 16-byte records is %d bytes, want 32 records and their links, 640", size)
	}
	const slabs = 1000
	held := make([]Slab[rec], slabs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range held {
		held[i].Alloc()
	}
	runtime.ReadMemStats(&after)
	// One chunk and its 8-byte directory are 648 B; the race detector's
	// runtime adds a few bytes a slab, a second chunk would add 640.
	if perSlab := float64(after.TotalAlloc-before.TotalAlloc) / slabs; perSlab >= 2*640 {
		t.Errorf("a one-record slab allocates %.0f B, want one 640-byte chunk and its 8-byte directory", perSlab)
	}
}

func TestSlabDoubleFreePanics(t *testing.T) {
	var s Slab[rec]
	i := s.Alloc()
	s.Free(i)
	defer func() {
		if recover() == nil {
			t.Fatal("double Free did not panic")
		}
	}()
	s.Free(i)
}

func TestPortSet(t *testing.T) {
	var ps PortSet
	if ps.Contains(0) || ps.Contains(65535) || ps.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	ports := []uint16{0, 1, 63, 64, 80, 443, 8080, 49152, 65535}
	for _, p := range ports {
		ps.Add(p)
		ps.Add(p) // idempotent
	}
	if ps.Len() != len(ports) {
		t.Fatalf("Len() = %d, want %d", ps.Len(), len(ports))
	}
	for _, p := range ports {
		if !ps.Contains(p) {
			t.Errorf("Contains(%d) = false after Add", p)
		}
	}
	if ps.Contains(81) || ps.Contains(2) {
		t.Error("Contains reports a port never added")
	}
	got := ps.Append(nil)
	for i, p := range ports {
		if got[i] != p {
			t.Fatalf("Append = %v, want ascending %v", got, ports)
		}
	}
}
