package netbuf

import "testing"

func TestTakeBytesRoundsToClass(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1452, 2048},
		{65535, 65536}, {65536, 65536},
		{65537, 131072}, // beyond the largest class: the next power of two, from the heap
	} {
		b := TakeBytes(tc.ask)
		if len(b) != tc.want || cap(b) != tc.want {
			t.Errorf("TakeBytes(%d): len %d cap %d, want %d", tc.ask, len(b), cap(b), tc.want)
		}
		ReturnBytes(&b)
		if b != nil {
			t.Errorf("ReturnBytes(%d) left the handle set", tc.ask)
		}
	}
}

// TestReturnedBytesAreRecycled: the buffer a ring gives back is the one the
// next ring of that class gets. sync.Pool drops a share of Puts under the
// race detector, so one hit in a few tries is the assertion.
func TestReturnedBytesAreRecycled(t *testing.T) {
	for range 100 {
		b := TakeBytes(3000)
		first := &b[0]
		ReturnBytes(&b)
		c := TakeBytes(2049) // same class, different request
		hit := &c[0] == first
		ReturnBytes(&c)
		if hit {
			return
		}
	}
	t.Error("100 take/return rounds never reused a buffer")
}

// TestReturnPoisonsUnderFlag: with SetPoison on, a slice kept across
// ReturnBytes reads as poison, so a stale alias in a simulation surfaces as
// a payload mismatch instead of silently reading recycled bytes.
func TestReturnPoisonsUnderFlag(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	b := TakeBytes(100)
	for i := range b {
		b[i] = byte(i)
	}
	stale := b[10:20]
	ReturnBytes(&b)
	for i, v := range stale {
		if v != poisonByte {
			t.Fatalf("stale alias byte %d reads %#x after return, want poison %#x", i, v, poisonByte)
		}
	}
}

func TestDoubleReturnPanics(t *testing.T) {
	b := TakeBytes(64)
	ReturnBytes(&b)
	defer func() {
		if recover() == nil {
			t.Error("second ReturnBytes through the same handle did not panic")
		}
	}()
	ReturnBytes(&b)
}

func TestReturnForeignBufferPanics(t *testing.T) {
	b := make([]byte, 100) // not a class size: never came from TakeBytes
	defer func() {
		if recover() == nil {
			t.Error("ReturnBytes accepted a buffer the store did not hand out")
		}
	}()
	ReturnBytes(&b)
}

func TestTakeReturnDoesNotAllocate(t *testing.T) {
	b := TakeBytes(4096)
	ReturnBytes(&b)
	if n := testing.AllocsPerRun(100, func() {
		b := TakeBytes(4096)
		ReturnBytes(&b)
	}); n > 0 {
		t.Errorf("warm take/return allocates %.1f times, want 0", n)
	}
}
