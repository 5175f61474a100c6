package flowtab

import (
	"container/list"
	"math/rand"
	"testing"
)

// TestLRUAgainstListOracle drives LRU and a container/list recency list
// through the same seeded programme of push, touch and remove operations
// over a small slot space (so slots are re-listed often) and compares the
// oldest slot and the full back-to-front order after every step.
func TestLRUAgainstListOracle(t *testing.T) {
	const slots = 24
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l LRU
		oracle := list.New() // front = most recent
		elem := make(map[uint32]*list.Element)
		for step := 0; step < 2000; step++ {
			i := uint32(rng.Intn(slots))
			e, listed := elem[i]
			switch op := rng.Intn(4); {
			case op == 0 && !listed:
				l.Push(i)
				elem[i] = oracle.PushFront(i)
			case op == 1: // Touch lists an unlisted slot
				l.Touch(i)
				if listed {
					oracle.MoveToFront(e)
				} else {
					elem[i] = oracle.PushFront(i)
				}
			case op == 2: // Remove ignores an unlisted slot
				l.Remove(i)
				if listed {
					oracle.Remove(e)
					delete(elem, i)
				}
			case op == 3: // evict, the way the bridges do under a cap
				old, ok := l.Oldest()
				if ok != (oracle.Len() > 0) {
					t.Fatalf("seed %d step %d: Oldest ok = %v with %d listed", seed, step, ok, oracle.Len())
				}
				if ok {
					if want := oracle.Back().Value.(uint32); old != want {
						t.Fatalf("seed %d step %d: Oldest = %d, oracle %d", seed, step, old, want)
					}
					l.Remove(old)
					oracle.Remove(oracle.Back())
					delete(elem, old)
				}
			}
			checkLRUOrder(t, &l, oracle, seed, step)
		}
	}
}

// checkLRUOrder walks the LRU's links from the oldest slot forward and
// compares every slot against the oracle's back-to-front order.
func checkLRUOrder(t *testing.T, l *LRU, oracle *list.List, seed int64, step int) {
	t.Helper()
	at := l.tail
	for e := oracle.Back(); e != nil; e = e.Prev() {
		if at == 0 || at-1 != e.Value.(uint32) {
			t.Fatalf("seed %d step %d: list order diverged from the oracle at slot %d (LRU has %d)",
				seed, step, e.Value, int64(at)-1)
		}
		at = l.links[at-1].prev
	}
	if at != 0 {
		t.Fatalf("seed %d step %d: LRU lists slot %d beyond the oracle's %d entries", seed, step, at-1, oracle.Len())
	}
}

// TestLRUZeroValue pins the two properties the owners rely on: an unused
// list allocates nothing, and Remove/Oldest on it are harmless.
func TestLRUZeroValue(t *testing.T) {
	var l LRU
	l.Remove(7)
	if _, ok := l.Oldest(); ok {
		t.Fatal("empty list reports an oldest slot")
	}
	if l.links != nil {
		t.Fatal("link array allocated before the first Push")
	}
	l.Touch(3)
	if i, ok := l.Oldest(); !ok || i != 3 {
		t.Fatalf("Oldest after Touch(3) = %d, %v", i, ok)
	}
}
