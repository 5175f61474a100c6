package flowtab

import "slices"

// LRU is a recency list over the slot indices of a Slab: Push and Touch put
// a slot at the front, Oldest reads the back, Remove takes a slot out. The
// links live in a side array indexed by slot, stored as index+1 so that
// zero means "none" and the zero value is an empty list ready for use; the
// records themselves carry no link fields. The side array grows on Push
// only, to the highest slot pushed: 8 bytes a slot, which is what the
// matchers' always-on flow cap costs per connection.
//
// A slot that was never pushed is simply not listed: Remove ignores it and
// Touch lists it.
type LRU struct {
	links      []lruLink
	head, tail uint32 // index+1 of the most and least recent slot; 0 = empty
}

type lruLink struct{ prev, next uint32 }

// Push lists slot i as the most recent. i must not be listed already.
func (l *LRU) Push(i uint32) {
	if n := int(i) + 1; n > len(l.links) {
		l.links = slices.Grow(l.links, n-len(l.links))[:n]
	}
	l.links[i] = lruLink{next: l.head}
	if l.head != 0 {
		l.links[l.head-1].prev = i + 1
	}
	l.head = i + 1
	if l.tail == 0 {
		l.tail = i + 1
	}
}

// Remove unlists slot i; a slot that is not listed is left alone.
func (l *LRU) Remove(i uint32) {
	if int(i) >= len(l.links) {
		return
	}
	k := l.links[i]
	if k.prev != 0 {
		l.links[k.prev-1].next = k.next
	} else if l.head == i+1 {
		l.head = k.next
	}
	if k.next != 0 {
		l.links[k.next-1].prev = k.prev
	} else if l.tail == i+1 {
		l.tail = k.prev
	}
	l.links[i] = lruLink{}
}

// Touch makes slot i the most recent, listing it if it was not.
func (l *LRU) Touch(i uint32) {
	if l.head == i+1 {
		return
	}
	l.Remove(i)
	l.Push(i)
}

// Oldest returns the least recently pushed or touched slot.
func (l *LRU) Oldest() (i uint32, ok bool) {
	return l.tail - 1, l.tail != 0
}
