package bench

import "testing"

// TestMemScaleGates is the memory-layout regression gate for the flow-table
// bridges (CI runs it on every push). At a small connection count it checks
// the structural claims E13 makes at a million connections:
//
//   - the flowtab layout keeps the GC-scannable object count per connection
//     far below one (the tables and arenas are O(1) objects total, so the
//     quotient shrinks with N; anything near 1.0 means a per-connection
//     heap object crept back in),
//   - the drive phase stays allocation-free, mirroring the E8 gate.
//
// Both gates are absolute: the pointer-per-connection layout they were once
// also compared against is a frozen table in EXPERIMENTS.md. Heap counters
// are exact (runtime.ReadMemStats after runtime.GC), so the thresholds are
// structural, not timing-noise-prone; wall-clock fields are reported but
// never gated.
func TestMemScaleGates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; heap-object counts only mean anything in a plain build")
	}
	pts, err := MemScale([]int{20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Layout != "flowtab" {
		t.Fatalf("got %+v, want one flowtab point", pts)
	}
	ft := &pts[0]
	if ft.ObjectsPerConn >= 1.0 {
		t.Errorf("flowtab layout holds %.4f live objects per connection (want << 1; a per-connection heap object is back)",
			ft.ObjectsPerConn)
	}
	if ft.DriveSegments == 0 {
		t.Fatalf("flowtab cell measured no drive segments: %+v", ft)
	}
	if ft.DriveAllocsPerSegment >= 0.01 {
		t.Errorf("drive phase allocations regressed: %.4f allocs/segment (want < 0.01)",
			ft.DriveAllocsPerSegment)
	}
	if ft.DriveNsPerSegment <= 0 {
		t.Errorf("drive ns/segment = %v, want > 0", ft.DriveNsPerSegment)
	}
}
