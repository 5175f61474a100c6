// Package flowtab provides the connection-state containers the bridges and
// the TCP demultiplexer keep on the per-segment critical path: an
// open-addressing hash table over packed uint64 flow keys (Map, and Table
// for its uint32 instance), a slab arena handing out dense slot indices
// instead of heap pointers (Slab), and a fixed-size port bitset (PortSet).
//
// The containers exist for one reason: at a million concurrent connections,
// Go's built-in map[key]*record keeps millions of individually GC-scanned
// heap objects alive — one record (plus its sub-objects) per connection,
// chased through randomly placed hash buckets on every segment. A Table
// over a Slab replaces all of that with a few flat table arrays and records
// stored by value in 32-record chunks that never move: the garbage
// collector sees one object per 32 records, growth copies no record, a
// pointer to a record stays valid until the record is freed, lookups probe
// a contiguous cache-dense array, and record-to-record links (the LRU
// lists) are 32-bit slot indices instead of pointers. A Map is pointer-free
// exactly when its value type is: a Map[*T] is scanned like any slice of
// pointers and keeps its values alive.
// DESIGN.md §12 describes the layout; experiment E13 (failover-bench
// -experiment memscale) measures its effect.
package flowtab

import "math/bits"

// Map is an open-addressing hash table from uint64 keys to values of type
// V, intended to map packed flow keys (core.TupleKey, tcp.Tuple.key()) to
// slot indices in a Slab or to the records themselves. It uses robin-hood
// probing with backward-shift deletion, so there are no tombstones and
// lookups terminate as soon as the probe distance exceeds the resident
// entry's — bounded, cache-local scans even at high load factors. The zero
// value is an empty table ready for use.
//
// Keys and probe distances live in arrays of their own, so a Map whose V
// holds no pointers has none either: to the garbage collector a Table of a
// million flows is three allocations, not a million.
type Map[V any] struct {
	keys []uint64
	vals []V
	// dist holds, per slot, the probe distance of the resident entry plus
	// one; 0 marks an empty slot. An entry's distance is how far it sits
	// from its home slot, which robin-hood keeps within O(log n) with high
	// probability; growth is forced long before the uint8 saturates.
	dist []uint8
	n    int
	mask uint64
}

// tableMaxLoad is the numerator of the grow threshold in eighths: the table
// rehashes when n exceeds 7/8 of capacity. Robin-hood probing keeps probe
// sequences short at loads where plain linear probing degrades, which is
// what lets the table stay dense — half the memory of doubling at 50%.
const tableMaxLoad = 7

// Table maps flow keys to uint32 slot indices: the pointer-free Map.
type Table = Map[uint32]

// hash finalizes a packed flow key. The keys are structured (address and
// port bits in fixed positions), so they must be mixed before masking;
// this is the 64-bit finalizer from MurmurHash3, bijective and cheap.
func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of resident entries.
func (t *Map[V]) Len() int { return t.n }

// Cap returns the current slot count (0 before the first Put).
func (t *Map[V]) Cap() int { return len(t.keys) }

// Get returns the value stored for key.
func (t *Map[V]) Get(key uint64) (val V, ok bool) {
	if t.n == 0 {
		return val, false
	}
	i := hash(key) & t.mask
	for d := uint8(1); ; d++ {
		switch {
		case t.dist[i] == 0 || t.dist[i] < d:
			// An empty slot, or a resident entry closer to home than the
			// probe: robin-hood invariant says key cannot be further on.
			return val, false
		case t.keys[i] == key:
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// Put stores val for key, replacing any existing value.
func (t *Map[V]) Put(key uint64, val V) {
	if 8*(t.n+1) > tableMaxLoad*len(t.keys) {
		t.grow()
	}
	t.insert(key, val)
}

// insert places an entry into a table that is guaranteed to have room.
func (t *Map[V]) insert(key uint64, val V) {
	i := hash(key) & t.mask
	d := uint8(1)
	for {
		switch {
		case t.dist[i] == 0:
			t.keys[i], t.vals[i], t.dist[i] = key, val, d
			t.n++
			return
		case t.keys[i] == key && t.dist[i] == d:
			t.vals[i] = val // update in place
			return
		case t.dist[i] < d:
			// Rob the rich: the resident is closer to home than we are, so
			// it can afford to move one further along.
			t.keys[i], key = key, t.keys[i]
			t.vals[i], val = val, t.vals[i]
			t.dist[i], d = d, t.dist[i]
		}
		i = (i + 1) & t.mask
		d++
		if d == 0 { // uint8 wrapped: pathological clustering, rehash larger
			t.grow()
			t.insert(key, val)
			return
		}
	}
}

// Delete removes key, returning the value it held. Backward-shift deletion
// restores the robin-hood invariant immediately: subsequent entries whose
// probe distance is above one slide back, so no tombstone is ever left to
// slow later lookups. The vacated slot's value is zeroed, so a Map of
// pointers does not keep a deleted value alive.
func (t *Map[V]) Delete(key uint64) (val V, ok bool) {
	if t.n == 0 {
		return val, false
	}
	i := hash(key) & t.mask
	for d := uint8(1); ; d++ {
		switch {
		case t.dist[i] == 0 || t.dist[i] < d:
			return val, false
		case t.keys[i] == key:
			val = t.vals[i]
			for {
				next := (i + 1) & t.mask
				if t.dist[next] <= 1 {
					var zero V
					t.vals[i], t.dist[i] = zero, 0
					break
				}
				t.keys[i], t.vals[i], t.dist[i] = t.keys[next], t.vals[next], t.dist[next]-1
				i = next
			}
			t.n--
			return val, true
		}
		i = (i + 1) & t.mask
	}
}

// AppendKeys appends every resident key to dst and returns it. The order is
// the table's internal slot order — callers that need determinism (the
// failover reconfiguration walks) sort the result.
func (t *Map[V]) AppendKeys(dst []uint64) []uint64 {
	for i, d := range t.dist {
		if d != 0 {
			dst = append(dst, t.keys[i])
		}
	}
	return dst
}

// grow rehashes into a table of at least double the capacity (minimum 8).
func (t *Map[V]) grow() {
	newCap := 8
	if len(t.keys) > 0 {
		newCap = 2 * len(t.keys)
	}
	t.rehash(newCap)
}

// rehash rebuilds the arrays at capacity c (a power of two).
func (t *Map[V]) rehash(c int) {
	if c&(c-1) != 0 {
		c = 1 << bits.Len(uint(c))
	}
	oldKeys, oldVals, oldDist := t.keys, t.vals, t.dist
	t.keys = make([]uint64, c)
	t.vals = make([]V, c)
	t.dist = make([]uint8, c)
	t.mask = uint64(c - 1)
	t.n = 0
	for i, d := range oldDist {
		if d != 0 {
			t.insert(oldKeys[i], oldVals[i])
		}
	}
}
