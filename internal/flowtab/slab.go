package flowtab

// Slab is an index-addressed arena of records. Alloc hands out dense uint32
// slot indices into one flat backing array; Free returns a slot to an
// intrusive index-linked free list for reuse. Records are stored by value:
// a Slab of a million pconn-sized records is a single allocation the
// garbage collector scans linearly (and, when T is pointer-free, not at
// all), instead of a million individually tracked objects.
//
// Pointers returned by At are valid only until the next Alloc — growth may
// move the backing array — and indices are reused: nothing may hold either
// across the record's Free.
//
// The zero value is an empty slab ready for use.
type Slab[T any] struct {
	items []T
	// next is the per-slot free-list link, kept out of the record array so a
	// pointer-free T yields a pointer-free (never-scanned) items array:
	// index+1 of the next free slot (0 ends the list), slabLive when
	// allocated.
	next []int32
	free int32 // head of the free list plus one; 0 when empty
	n    int
	zero T // template for resetting recycled slots
}

const slabLive int32 = -1

// NewSlab returns a slab with room for n records before the first growth.
func NewSlab[T any](n int) *Slab[T] {
	s := &Slab[T]{}
	if n > 0 {
		s.items = make([]T, 0, n)
		s.next = make([]int32, 0, n)
	}
	return s
}

// Len returns the number of live records.
func (s *Slab[T]) Len() int { return s.n }

// Cap returns the total number of slots ever created (live + free).
func (s *Slab[T]) Cap() int { return len(s.items) }

// Alloc returns the index of a zeroed slot, reusing freed slots before
// growing the arrays.
func (s *Slab[T]) Alloc() uint32 {
	s.n++
	if s.free > 0 {
		i := uint32(s.free - 1)
		s.free = s.next[i]
		s.next[i] = slabLive
		s.items[i] = s.zero
		return i
	}
	s.items = append(s.items, s.zero)
	s.next = append(s.next, slabLive)
	return uint32(len(s.items) - 1)
}

// At returns the record at slot i. The pointer is invalidated by the next
// Alloc; do not retain it across allocations.
func (s *Slab[T]) At(i uint32) *T { return &s.items[i] }

// Free returns slot i to the free list. The record is reset immediately,
// releasing anything its fields reference.
func (s *Slab[T]) Free(i uint32) {
	if s.next[i] != slabLive {
		panic("flowtab: double free of slab slot")
	}
	s.items[i] = s.zero
	s.next[i] = s.free
	s.free = int32(i) + 1
	s.n--
}

// Range calls fn for every live slot in ascending index order.
func (s *Slab[T]) Range(fn func(i uint32, item *T)) {
	for i := range s.items {
		if s.next[i] == slabLive {
			fn(uint32(i), &s.items[i])
		}
	}
}
