package bench

import "testing"

// TestMemScaleGates is the memory-layout regression gate for the flow-table
// bridges (CI runs it on every push). At a small connection count it checks
// the structural claim E13 makes at a million connections: the flowtab
// layout keeps the GC-scannable object count per connection far below one
// (the tables are O(1) objects total and each arena one 32-record chunk
// per 32 connections, so the quotient stays near two 32nds; anything near
// 1.0 means a per-connection heap object crept back in). Heap counters are
// exact (runtime.ReadMemStats after runtime.GC), so the threshold is
// structural, not timing-noise-prone. The bridges' hot
// path allocating nothing is TestShardScaleSteadyStateAllocs's to gate:
// every client ACK there crosses the same PrimaryBridge.Inbound.
func TestMemScaleGates(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; heap-object counts only mean anything in a plain build")
	}
	pts, err := MemScale([]int{20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Conns != 20_000 || pts[0].BytesPerConn <= 0 {
		t.Fatalf("got %+v, want one populated point", pts)
	}
	if pts[0].ObjectsPerConn >= 1.0 {
		t.Errorf("flowtab layout holds %.4f live objects per connection (want << 1; a per-connection heap object is back)",
			pts[0].ObjectsPerConn)
	}
}
