package tcp

import (
	"bytes"
	"math/rand"
	"testing"

	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/obs"
)

// discard is a detached counter for ring construction in tests.
func discard() obs.Counter { return (*obs.Registry)(nil).Counter("test") }

func TestRingBasicOps(t *testing.T) {
	r := newRing(8, discard())
	if r.Cap() != 8 || r.Len() != 0 || r.Free() != 8 {
		t.Fatalf("fresh ring: cap=%d len=%d free=%d", r.Cap(), r.Len(), r.Free())
	}
	if n := r.Write([]byte("abcde")); n != 5 {
		t.Fatalf("Write = %d, want 5", n)
	}
	if n := r.Write([]byte("fghij")); n != 3 {
		t.Fatalf("overflow Write = %d, want 3 (capacity)", n)
	}
	got := make([]byte, 4)
	if n := r.Read(got); n != 4 || string(got) != "abcd" {
		t.Fatalf("Read = %d %q", n, got[:n])
	}
	// Wraparound write.
	if n := r.Write([]byte("wxyz")); n != 4 {
		t.Fatalf("wrap Write = %d, want 4", n)
	}
	rest := make([]byte, 16)
	n := r.Read(rest)
	if string(rest[:n]) != "efghwxyz" {
		t.Fatalf("drained %q, want efghwxyz", rest[:n])
	}
}

func TestRingPeekDoesNotConsume(t *testing.T) {
	r := newRing(16, discard())
	r.Write([]byte("hello world"))
	p := make([]byte, 5)
	if n := r.Peek(6, p); n != 5 || string(p) != "world" {
		t.Fatalf("Peek(6) = %d %q", n, p[:n])
	}
	if r.Len() != 11 {
		t.Errorf("Peek consumed data: len=%d", r.Len())
	}
	if n := r.Peek(11, p); n != 0 {
		t.Errorf("Peek past end = %d, want 0", n)
	}
	r.Consume(6)
	if n := r.Peek(0, p); n != 5 || string(p) != "world" {
		t.Fatalf("after Consume, Peek(0) = %q", p[:n])
	}
}

// TestRingAgainstReference drives random operations against a simple slice
// model. The ring grows through several store classes and drains back to
// empty on the way; the store poisons what the ring returns, so contents
// left behind in an outgrown buffer would show as a mismatch.
func TestRingAgainstReference(t *testing.T) {
	netbuf.SetPoison(true)
	defer netbuf.SetPoison(false)
	const capacity = 1000 // not a class size: the last buffer rounds up past it
	rng := rand.New(rand.NewSource(7))
	r := newRing(capacity, discard())
	var ref []byte
	for i := range 5000 {
		switch rng.Intn(3) {
		case 0: // write
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			n := r.Write(p)
			wantN := min(len(p), capacity-len(ref))
			if n != wantN {
				t.Fatalf("op %d: Write accepted %d, want %d", i, n, wantN)
			}
			ref = append(ref, p[:n]...)
		case 1: // read
			p := make([]byte, rng.Intn(400))
			n := r.Read(p)
			wantN := min(len(p), len(ref))
			if n != wantN || !bytes.Equal(p[:n], ref[:wantN]) {
				t.Fatalf("op %d: Read got %q want %q", i, p[:n], ref[:wantN])
			}
			ref = ref[wantN:]
			r.release() // a no-op unless that read the ring dry
		case 2: // peek at random offset
			if len(ref) == 0 {
				continue
			}
			off := rng.Intn(len(ref))
			p := make([]byte, rng.Intn(20)+1)
			n := r.Peek(off, p)
			wantN := min(len(p), len(ref)-off)
			if n != wantN || !bytes.Equal(p[:n], ref[off:off+wantN]) {
				t.Fatalf("op %d: Peek(%d) got %q want %q", i, off, p[:n], ref[off:off+wantN])
			}
		}
		if r.Len() != len(ref) {
			t.Fatalf("op %d: len %d != ref %d", i, r.Len(), len(ref))
		}
	}
}

func TestRingConsumeClamps(t *testing.T) {
	r := newRing(8, discard())
	r.Write([]byte("ab"))
	r.Consume(100) // must not panic or corrupt
	if r.Len() != 0 || r.Free() != 8 {
		t.Errorf("after over-consume: len=%d free=%d", r.Len(), r.Free())
	}
}

// TestRingRelease: an empty ring gives its storage back and is usable
// afterwards; a ring holding data keeps both.
func TestRingRelease(t *testing.T) {
	r := newRing(64, discard())
	r.Write([]byte("abcdefgh"))
	r.Consume(3) // start != 0
	r.release()
	p := make([]byte, 8)
	if r.buf == nil || r.Len() != 5 || r.Peek(0, p) != 5 || string(p[:5]) != "defgh" {
		t.Fatalf("release dropped a ring holding %q", p[:r.Len()])
	}
	r.Consume(5)
	r.release()
	if r.buf != nil || r.start != 0 {
		t.Fatalf("empty ring kept its buffer: len(buf)=%d start=%d", len(r.buf), r.start)
	}
	if r.Cap() != 64 || r.Free() != 64 || r.Len() != 0 {
		t.Fatalf("release changed the logical ring: cap=%d free=%d len=%d", r.Cap(), r.Free(), r.Len())
	}
	if n := r.Read(p); n != 0 {
		t.Fatalf("Read on a released ring = %d", n)
	}
	r.Consume(1) // must not divide by the zero-length buffer
	if n := r.Write([]byte("again")); n != 5 || r.Read(p) != 5 || string(p[:5]) != "again" {
		t.Fatalf("released ring did not take a new write: %q", p[:5])
	}
}

// TestRingDrop: a dropped ring forgets its contents and gives the storage
// back whether or not it was empty.
func TestRingDrop(t *testing.T) {
	r := newRing(64, discard())
	r.Write([]byte("unsent"))
	r.drop()
	if r.buf != nil || r.Len() != 0 || r.Free() != 64 {
		t.Fatalf("dropped ring: buf %d bytes, len %d, free %d", len(r.buf), r.Len(), r.Free())
	}
	r.drop() // nothing to return: must not reach the store's double-return panic
}
