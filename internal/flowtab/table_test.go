package flowtab

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// TestFlowtabDifferential is the table's correctness gate, in the same
// differential style as the repo's wheel-vs-heap and shard-vs-sequential
// tests: a seeded workload of interleaved inserts, updates, deletes,
// lookups, and key walks runs against both the open-addressing table and a
// builtin model map, and every observable must agree at every step. The
// trial count and key ranges are chosen so each trial crosses several
// growth/rehash boundaries and churns deleted slots hard enough that
// backward-shift deletion bugs (the open-addressing analogue of tombstone
// leaks) cannot hide. It runs over the pointer-free Table and over a Map of
// pointers, whose values must come back as the identical pointers.
func TestFlowtabDifferential(t *testing.T) {
	differential(t, func(rng *rand.Rand) uint32 { return rng.Uint32() })
	differential(t, func(rng *rand.Rand) *[4]uint64 { return &[4]uint64{rng.Uint64()} })

	// A Map of pointers keeps its values alive: after a collection in which
	// the map holds the only reference, the value is still there. (It
	// outsizes a 16-byte tiny-allocator block, which a neighbour could pin.)
	var tab Map[*[4]uint64]
	w := func() weak.Pointer[[4]uint64] { v := new([4]uint64); tab.Put(7, v); return weak.Make(v) }()
	runtime.GC()
	if got, ok := tab.Get(7); !ok || w.Value() == nil || got != w.Value() {
		t.Fatalf("a value reachable only through the map did not survive a collection")
	}
}

func differential[V comparable](t *testing.T, draw func(*rand.Rand) V) {
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(40_000 + trial)))
		var tab Map[V]
		model := make(map[uint64]V)
		// A narrow key universe forces constant collisions and re-insertion
		// over freshly deleted slots; a handful of trials use a wide
		// universe to exercise growth deep past the initial capacity.
		universe := uint64(16 + rng.Intn(200))
		if trial%50 == 0 {
			universe = 100_000
		}
		steps := 200 + rng.Intn(400)
		for step := 0; step < steps; step++ {
			key := rng.Uint64() % universe
			switch op := rng.Intn(10); {
			case op < 5: // insert / update
				val := draw(rng)
				tab.Put(key, val)
				model[key] = val
			case op < 8: // delete
				gotVal, gotOK := tab.Delete(key)
				wantVal, wantOK := model[key]
				delete(model, key)
				if gotOK != wantOK || gotVal != wantVal {
					t.Fatalf("trial %d step %d: Delete(%d) = (%v,%v), want (%v,%v)",
						trial, step, key, gotVal, gotOK, wantVal, wantOK)
				}
			default: // lookup
				gotVal, gotOK := tab.Get(key)
				wantVal, wantOK := model[key]
				if gotOK != wantOK || gotVal != wantVal {
					t.Fatalf("trial %d step %d: Get(%d) = (%v,%v), want (%v,%v)",
						trial, step, key, gotVal, gotOK, wantVal, wantOK)
				}
			}
			if tab.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len() = %d, want %d", trial, step, tab.Len(), len(model))
			}
		}
		// Full-state audit at the end of the trial: every model entry
		// retrievable, and the key walk is exactly the model's key set.
		for k, want := range model {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("trial %d: final Get(%d) = (%v,%v), want (%v,true)", trial, k, got, ok, want)
			}
		}
		keys := tab.AppendKeys(nil)
		if len(keys) != len(model) {
			t.Fatalf("trial %d: AppendKeys returned %d keys, want %d", trial, len(keys), len(model))
		}
		slices.Sort(keys)
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		slices.Sort(want)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d: key walk diverged from model", trial)
		}
	}
}

// TestTableZeroKey pins down that key 0 is an ordinary key: occupancy lives
// in the metadata array, not in a sentinel key value.
func TestTableZeroKey(t *testing.T) {
	var tab Table
	if _, ok := tab.Get(0); ok {
		t.Fatal("empty table claims to hold key 0")
	}
	tab.Put(0, 77)
	if v, ok := tab.Get(0); !ok || v != 77 {
		t.Fatalf("Get(0) = (%d,%v), want (77,true)", v, ok)
	}
	if v, ok := tab.Delete(0); !ok || v != 77 {
		t.Fatalf("Delete(0) = (%d,%v), want (77,true)", v, ok)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d after deleting the only key", tab.Len())
	}
}

// TestTableGrowthBoundary walks the load factor straight through several
// rehashes and then removes everything, verifying contents at each size.
func TestTableGrowthBoundary(t *testing.T) {
	var tab Table
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		tab.Put(i, uint32(i*2))
		if v, ok := tab.Get(i); !ok || v != uint32(i*2) {
			t.Fatalf("Get(%d) right after Put = (%d,%v)", i, v, ok)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len() = %d, want %d", tab.Len(), n)
	}
	if tab.Cap()&(tab.Cap()-1) != 0 {
		t.Fatalf("Cap() = %d, want a power of two", tab.Cap())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tab.Delete(i); !ok || v != uint32(i*2) {
			t.Fatalf("Delete(%d) = (%d,%v)", i, v, ok)
		}
		// The key after the deleted one must still be reachable across the
		// backward shift.
		if i+1 < n {
			if v, ok := tab.Get(i + 1); !ok || v != uint32((i+1)*2) {
				t.Fatalf("Get(%d) after deleting %d = (%d,%v)", i+1, i, v, ok)
			}
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d after deleting all", tab.Len())
	}
}

// TestTableUpdateDoesNotGrowCount pins the update-in-place path.
func TestTableUpdateDoesNotGrowCount(t *testing.T) {
	var tab Table
	for i := 0; i < 100; i++ {
		tab.Put(42, uint32(i))
	}
	if tab.Len() != 1 {
		t.Fatalf("Len() = %d after 100 updates of one key", tab.Len())
	}
	if v, _ := tab.Get(42); v != 99 {
		t.Fatalf("Get(42) = %d, want 99", v)
	}
}
