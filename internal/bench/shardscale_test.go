package bench

import (
	"reflect"
	"testing"

	"tcpfailover/internal/obs"
	"tcpfailover/internal/sim"
)

// TestShardScaleDeterministicAcrossShardCounts is the E10 determinism gate
// (CI runs it under -race on every push): the same seed through the E10
// workload at shards 1, 2, and 4 must produce byte-identical per-stream
// execution digests — the shard count may only change wall-clock numbers.
// The three simulations run through parallelEachBudget with a cost of 4
// cores each, the composition rule the sharded engine imposes on the bench
// harness: concurrent simulations x shard workers stays within the Workers
// budget, and results land in config order regardless of completion order.
func TestShardScaleDeterministicAcrossShardCounts(t *testing.T) {
	shardCounts := []int{1, 2, 4}
	const conns = 64 // 8 cells x 8 connections, one of them cross-cell
	points := make([]ShardScalePoint, len(shardCounts))
	digs := make([][]sim.StreamDigest, len(shardCounts))
	if err := parallelEachBudget(len(shardCounts), 4, func(i int) error {
		p, ss, err := shardScalePoint(connScaleOptions(42), conns, shardCounts[i], 0, true)
		if err != nil {
			return err
		}
		points[i] = p
		digs[i] = ss.Digests()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(digs[0]) == 0 {
		t.Fatal("sequential run produced no stream digests")
	}
	for i := 1; i < len(shardCounts); i++ {
		if !reflect.DeepEqual(digs[i], digs[0]) {
			t.Errorf("shards=%d: per-stream digests diverge from shards=1:\n seq: %+v\n got: %+v",
				shardCounts[i], digs[0], digs[i])
		}
	}
	if points[2].Shards != 4 {
		t.Errorf("requested 4 shards, built %d", points[2].Shards)
	}
	if points[2].CrossPosts == 0 {
		t.Error("4-shard run buffered no cross-domain deliveries; the gate is not exercising the trunks")
	}
	if points[0].CrossPosts != 0 {
		t.Errorf("sequential run reports %d cross-domain posts, want 0", points[0].CrossPosts)
	}
}

// TestShardScaleSteadyStateAllocs is the allocation gate for the per-event
// hot path (CI runs it on every push), on E10's cell workload — the same
// request/reply cell benchmark/'s conn-scale workload drives. In the measured
// steady state — connections established, buffers pooled, timers recycling
// through the wheel — nothing may allocate per event: not one shard, not the
// fleet span recorder attached (every in-order delivery touching a span
// slot, every segment branching on the takeover mark; span storage is
// table+slab, so the traced path is index-addressed stores), and not the
// sharded path's buffered cross-domain posts, barrier drains, explicit-key
// heap injection and trunk frame relay. Workers is pinned to 1 so the
// measurement sees the per-event path, not the per-window goroutine launches
// (a per-window constant that amortizes to nothing at real connection counts
// but not at this test's 256).
func TestShardScaleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate only means anything in a plain build")
	}
	for _, tc := range []struct {
		name   string
		shards int
		spans  bool
	}{
		{"one_shard", 1, false},
		{"one_shard_spans", 1, true},
		{"four_shards", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := connScaleOptions(43)
			opts.Spans = tc.spans
			p, ss, err := shardScalePoint(opts, 256, tc.shards, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.Events == 0 || p.Rounds == 0 {
				t.Fatalf("empty measurement: %+v", p)
			}
			if tc.shards > 1 && p.CrossPosts == 0 {
				t.Fatal("no cross-domain deliveries; the gate is not exercising the sharded path")
			}
			if tc.spans {
				// A cross-cell connection's divert mark lands in its server
				// cell's recorder; its dial is recorded once, in its own.
				dialed := 0
				for _, c := range ss.Cells {
					for _, sp := range c.Spans.Spans() {
						if sp.Has(obs.SpanSynSent) {
							dialed++
						}
					}
				}
				if dialed != p.Conns {
					t.Fatalf("%d spans recorded a dial, want one per connection (%d)", dialed, p.Conns)
				}
			}
			// 0.01 allocs/event = one allocation per hundred events; a real
			// per-event or per-delivery allocation shows up as >= 1.0.
			t.Logf("%.4f allocs/event", p.AllocsPerEvent)
			if p.AllocsPerEvent >= 0.01 {
				t.Errorf("steady-state allocations regressed: %.4f allocs/event (want < 0.01)", p.AllocsPerEvent)
			}
		})
	}
}
