package tcp

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestReassemblyInOrderPop(t *testing.T) {
	var ra reassembly
	ra.insert(100, []byte("abc"))
	ra.insert(103, []byte("def"))
	got := ra.pop(100)
	if string(got) != "abcdef" {
		t.Fatalf("pop = %q", got)
	}
	if !ra.empty() {
		t.Error("not empty after full pop")
	}
}

func TestReassemblyGapBlocksPop(t *testing.T) {
	var ra reassembly
	ra.insert(105, []byte("later"))
	if got := ra.pop(100); got != nil {
		t.Fatalf("pop across gap returned %q", got)
	}
	ra.insert(100, []byte("early"))
	if got := ra.pop(100); string(got) != "earlylater" {
		t.Fatalf("pop = %q", got)
	}
}

func TestReassemblyOverlapPrefersExisting(t *testing.T) {
	var ra reassembly
	ra.insert(100, []byte("AAAA"))
	ra.insert(98, []byte("bbbbbb")) // overlaps [100,104): keep existing AAAA
	got := ra.pop(98)
	if string(got) != "bbAAAA" {
		t.Fatalf("pop = %q, want bbAAAA", got)
	}
}

func TestReassemblyDuplicateIgnored(t *testing.T) {
	var ra reassembly
	ra.insert(100, []byte("data"))
	ra.insert(100, []byte("DATA"))
	if got := ra.pop(100); string(got) != "data" {
		t.Fatalf("pop = %q", got)
	}
}

func TestReassemblyPopSkipsStaleBlocks(t *testing.T) {
	var ra reassembly
	ra.insert(90, []byte("old"))
	ra.insert(100, []byte("new"))
	if got := ra.pop(100); string(got) != "new" {
		t.Fatalf("pop = %q", got)
	}
}

// TestReassemblyRandomizedEquivalence: inserting random overlapping chunks
// of a known stream in random order always reconstructs the stream.
func TestReassemblyRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 200 {
		stream := make([]byte, 500+rng.Intn(500))
		for i := range stream {
			stream[i] = byte(rng.Intn(256))
		}
		base := Seq(rng.Uint32())
		var ra reassembly
		// Random overlapping cover of the stream.
		for range 200 {
			start := rng.Intn(len(stream))
			end := min(start+1+rng.Intn(80), len(stream))
			ra.insert(base.Add(start), stream[start:end])
		}
		// Guarantee full coverage.
		for off := 0; off < len(stream); off += 64 {
			end := min(off+64, len(stream))
			ra.insert(base.Add(off), stream[off:end])
		}
		got := ra.pop(base)
		if !bytes.Equal(got, stream) {
			t.Fatalf("trial %d: reconstructed %d bytes, want %d (equal=%v)",
				trial, len(got), len(stream), bytes.Equal(got, stream))
		}
	}
}
