package netbuf

import (
	"bytes"
	"testing"
)

func TestExtendPrependRoundTrip(t *testing.T) {
	b := Get()
	defer b.Release()
	copy(b.Extend(5), "world")
	copy(b.Prepend(6), "hello ")
	if got := string(b.Bytes()); got != "hello world" {
		t.Fatalf("Bytes() = %q", got)
	}
	if b.Len() != 11 {
		t.Fatalf("Len() = %d", b.Len())
	}
}

func TestPrependBeyondHeadroomPanics(t *testing.T) {
	b := Get()
	defer b.Release()
	defer func() {
		if recover() == nil {
			t.Error("Prepend past headroom did not panic")
		}
	}()
	b.Prepend(Headroom + 1)
}

func TestOversizeExtendGrows(t *testing.T) {
	b := Get()
	big := b.Extend(4 * payloadRoom)
	for i := range big {
		big[i] = byte(i)
	}
	if b.Len() != 4*payloadRoom {
		t.Fatalf("Len() = %d", b.Len())
	}
	b.Release() // grown store must not poison the pool
	c := Get()
	defer c.Release()
	if cap(c.store) != storeSize {
		t.Errorf("pool handed out a grown store (cap %d)", cap(c.store))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	b := From([]byte("original"))
	c := b.Clone()
	b.Bytes()[0] = 'X'
	if !bytes.Equal(c.Bytes(), []byte("original")) {
		t.Errorf("clone aliases original: %q", c.Bytes())
	}
	c.Prepend(4) // clone has its own headroom
	b.Release()
	c.Release()
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	b.Release()
}

func TestLeakCheckCountsLiveBuffers(t *testing.T) {
	SetLeakCheck(true)
	defer SetLeakCheck(false)
	a, b := Get(), Get()
	if Live() != 2 {
		t.Fatalf("Live() = %d, want 2", Live())
	}
	a.Release()
	b.Release()
	if Live() != 0 {
		t.Fatalf("Live() = %d after releases, want 0", Live())
	}
	// Ring storage is counted in bytes, at its class size, heap-served
	// oversize requests included.
	small, big := TakeBytes(100), TakeBytes(MaxBytes+1)
	if LiveBytes() != 128+2*MaxBytes {
		t.Fatalf("LiveBytes() = %d, want %d", LiveBytes(), 128+2*MaxBytes)
	}
	ReturnBytes(&small)
	ReturnBytes(&big)
	if LiveBytes() != 0 {
		t.Fatalf("LiveBytes() = %d after returns, want 0", LiveBytes())
	}
}

func TestGetSteadyStateZeroAlloc(t *testing.T) {
	for i := 0; i < 64; i++ {
		Get().Release()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get()
		b.Extend(1460)
		b.Prepend(Headroom)
		b.Release()
	})
	// Tolerate the rare pool refill after a concurrent GC; steady state is 0.
	if allocs > 0.05 {
		t.Errorf("pooled get/release allocates %.2f per packet, want ~0", allocs)
	}
}
