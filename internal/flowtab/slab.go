package flowtab

// Slab is an index-addressed arena of records. Alloc hands out dense uint32
// slot indices; Free returns a slot to an intrusive index-linked free list
// for reuse. Records are stored by value in chunks of slabChunk, each one
// heap object that never moves once made: growth adds a chunk and copies
// nothing, a slab holds at most one partly used chunk beyond its high-water
// mark, and a million records are some 31 000 objects the garbage collector
// marks (and, when T is pointer-free, never scans) rather than a million.
//
// A pointer returned by At stays valid until its slot is freed. Indices are
// reused: nothing may hold either across the record's Free.
//
// The zero value is an empty slab ready for use.
type Slab[T any] struct {
	chunks []*chunk[T]
	free   int32 // head of the free list plus one; 0 when empty
	n      int   // live records
	made   int   // slots created, live or free
}

// A chunk is 32 records: 256-record chunks cost every small slab tens of
// kilobytes (a stream's bridges each hold a handful of flows).
const (
	slabBits  = 5
	slabChunk = 1 << slabBits
	slabMask  = slabChunk - 1
)

// chunk holds slabChunk records and their free-list links. The links sit
// beside the records rather than in them, so a pointer-free T yields a
// pointer-free (never-scanned) chunk: index+1 of the next free slot (0 ends
// the list, and marks a slot not yet created), slabLive when allocated.
type chunk[T any] struct {
	items [slabChunk]T
	next  [slabChunk]int32
}

const slabLive int32 = -1

// Len returns the number of live records.
func (s *Slab[T]) Len() int { return s.n }

// Cap returns the total number of slots ever created (live + free).
func (s *Slab[T]) Cap() int { return s.made }

// Alloc returns the index of a zeroed slot, reusing freed slots before
// creating new ones.
func (s *Slab[T]) Alloc() uint32 {
	s.n++
	if s.free > 0 {
		i := uint32(s.free - 1)
		c := s.chunks[i>>slabBits]
		s.free = c.next[i&slabMask]
		c.next[i&slabMask] = slabLive
		var zero T
		c.items[i&slabMask] = zero
		return i
	}
	i := s.made
	if i&slabMask == 0 {
		s.chunks = append(s.chunks, new(chunk[T]))
	}
	s.made++
	s.chunks[i>>slabBits].next[i&slabMask] = slabLive
	return uint32(i)
}

// At returns the record at slot i.
func (s *Slab[T]) At(i uint32) *T { return &s.chunks[i>>slabBits].items[i&slabMask] }

// Free returns slot i to the free list. The record is reset immediately,
// releasing anything its fields reference.
func (s *Slab[T]) Free(i uint32) {
	c := s.chunks[i>>slabBits]
	if c.next[i&slabMask] != slabLive {
		panic("flowtab: double free of slab slot")
	}
	var zero T
	c.items[i&slabMask] = zero
	c.next[i&slabMask] = s.free
	s.free = int32(i) + 1
	s.n--
}

// Range calls fn for every live slot in ascending index order.
func (s *Slab[T]) Range(fn func(i uint32, item *T)) {
	for ci, c := range s.chunks {
		for j := range c.next {
			if c.next[j] == slabLive {
				fn(uint32(ci<<slabBits|j), &c.items[j])
			}
		}
	}
}
