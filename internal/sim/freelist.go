package sim

// FreeList is a LIFO pool of the objects scheduler callbacks carry through
// AtArg (events, packet events, frame deliveries); the zero value is empty.
// A pool keeps what its last period used: every shedPeriod Puts, the items
// that lay below the period's low-water mark, which no Get reached, go to the
// collector and the rest move to an array sized to fit. A set-up burst's
// objects thus leave the live heap within two periods. A shed object is never
// handed out again, so a stale handle to it stays stale.
type FreeList[T any] struct {
	items []*T
	low   int // fewest items held since the period began
	puts  int // Puts so far
}

// shedPeriod is the Puts between sheds: one allocation (the fitted array) per
// 2^16 Puts is far under the allocation gates' 0.01 per event, and conn-scale's
// scheduler still sheds about every 50 virtual milliseconds.
const shedPeriod = 1 << 16

// Get pops the item put most recently, or returns nil if the list is empty.
func (f *FreeList[T]) Get() *T {
	n := len(f.items) - 1
	if n < 0 {
		return nil
	}
	x := f.items[n]
	f.items[n] = nil
	f.items = f.items[:n]
	f.low = min(f.low, n)
	return x
}

// Put pushes x. The shed inlines here, which keeps Put inside the inlining
// budget of the scheduler's release and the host's putPktEvent.
func (f *FreeList[T]) Put(x *T) {
	f.items = append(f.items, x)
	if f.puts++; f.puts&(shedPeriod-1) == 0 {
		f.items = append([]*T(nil), f.items[f.low:]...)
		f.low = len(f.items)
	}
}

// Len returns the number of items held.
func (f *FreeList[T]) Len() int { return len(f.items) }
