package tcpfailover_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/sim"
)

// shardEchoRun drives a 4-cell sharded scenario with local and cross-cell
// echo traffic and returns its byte-identity witnesses: per-stream digests,
// the merged metrics snapshot, and the per-client byte counts.
type shardRunResult struct {
	digests  []sim.StreamDigest
	snapshot []byte
	received []int64
	executed int
}

func runShardedEcho(t *testing.T, cells, shards int, faults *fault.Plan, barrierAt time.Duration) shardRunResult {
	t.Helper()
	opts := tcpfailover.ShardedOptions{
		Cells:  cells,
		Shards: shards,
		Cell:   tcpfailover.LANOptions(),
		ConfigureCell: func(i int, o *tcpfailover.Options) {
			if i == 0 && faults != nil {
				o.Faults = faults
			}
		},
		CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
		Digest:    true,
	}
	ss, err := tcpfailover.NewSharded(opts)
	if err != nil {
		t.Fatalf("sharded scenario: %v", err)
	}

	// Echo service on every cell's replicated pair.
	for _, cell := range ss.Cells {
		cell.Stream.Use()
		if err := cell.Group.OnEach(echoServer); err != nil {
			t.Fatalf("cell %d install: %v", cell.Index, err)
		}
	}

	// Per cell: one local echo client, and one cross-cell client dialing the
	// next cell's service through the trunk ring.
	var clients []*echoClient
	dial := func(cell *tcpfailover.Cell, to *tcpfailover.Cell, total int64) {
		cell.Stream.Use()
		ec, err := dialEcho(cell.Scenario, to.ServiceAddr(), total, 80)
		if err != nil {
			t.Fatalf("dial cell %d -> %d: %v", cell.Index, to.Index, err)
		}
		clients = append(clients, ec)
	}
	for i, cell := range ss.Cells {
		dial(cell, cell, 48*1024)
		dial(cell, ss.Cells[(i+1)%len(ss.Cells)], 24*1024)
	}
	ss.Start()

	done := func() bool {
		for _, cl := range clients {
			if !cl.closed {
				return false
			}
		}
		return true
	}
	if barrierAt > 0 {
		// Force a window barrier exactly at the requested instant (RunUntil
		// clamps the final window edge to its deadline).
		if err := ss.RunUntil(barrierAt); err != nil {
			t.Fatalf("run to barrier: %v", err)
		}
		if got := ss.Now(); got != barrierAt {
			t.Fatalf("barrier at %v, want %v", got, barrierAt)
		}
	}
	if err := ss.RunWhile(func() bool { return !done() }, 5*time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done() {
		for i, cl := range clients {
			if !cl.closed {
				t.Errorf("client %d not closed (received=%d)", i, cl.received)
			}
		}
		t.Fatal("traffic did not finish")
	}

	snap, err := json.Marshal(ss.MergedSnapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	res := shardRunResult{digests: ss.Digests(), snapshot: snap, executed: ss.Executed()}
	for _, cl := range clients {
		res.received = append(res.received, cl.received)
	}
	return res
}

// TestShardedDifferential is the tentpole's acceptance test: identical seeds
// through shards=1 (sequential) and shards=2/4 must produce byte-identical
// per-stream digests, merged metrics snapshots, and traffic outcomes.
func TestShardedDifferential(t *testing.T) {
	base := runShardedEcho(t, 4, 1, nil, 0)
	for _, shards := range []int{2, 4} {
		got := runShardedEcho(t, 4, shards, nil, 0)
		if !reflect.DeepEqual(got.digests, base.digests) {
			t.Errorf("shards=%d: stream digests diverge from sequential\n seq: %+v\n got: %+v",
				shards, base.digests, got.digests)
		}
		if string(got.snapshot) != string(base.snapshot) {
			t.Errorf("shards=%d: merged snapshot diverges from sequential", shards)
		}
		if !reflect.DeepEqual(got.received, base.received) {
			t.Errorf("shards=%d: client byte counts diverge: %v vs %v", shards, got.received, base.received)
		}
		if got.executed != base.executed {
			t.Errorf("shards=%d: executed %d events, sequential executed %d", shards, got.executed, base.executed)
		}
	}
}

// TestShardedCrashOnWindowBarrier pins the degenerate case of a failure
// schedule firing exactly on a window barrier: cell 0's primary crashes at
// an instant that is forced to be a window edge, and the failover must
// still complete byte-identically across shard counts.
func TestShardedCrashOnWindowBarrier(t *testing.T) {
	const crashAt = 100 * time.Millisecond
	plan := &fault.Plan{Schedule: []fault.Step{{At: crashAt, Op: fault.OpCrashPrimary}}}
	base := runShardedEcho(t, 4, 1, plan, crashAt)
	for _, shards := range []int{2, 4} {
		got := runShardedEcho(t, 4, shards, plan, crashAt)
		if !reflect.DeepEqual(got.digests, base.digests) {
			t.Errorf("shards=%d: digests diverge after barrier-aligned crash", shards)
		}
		if string(got.snapshot) != string(base.snapshot) {
			t.Errorf("shards=%d: merged snapshot diverges after barrier-aligned crash", shards)
		}
	}
}

// TestShardedSingleCell covers the degenerate all-hosts-in-one-domain
// partition: one cell, shards clamped to 1, no trunks.
func TestShardedSingleCell(t *testing.T) {
	res := runShardedEcho(t, 1, 8, nil, 0)
	if len(res.digests) == 0 {
		t.Fatal("no stream digests")
	}
	for _, r := range res.received {
		if r == 0 {
			t.Fatal("client received nothing")
		}
	}
}

// TestShardedZeroLatencyRejected: a zero-latency cross-domain link cannot
// support conservative lookahead; the builder must reject it with a clear
// error while still allowing the sequential (shards=1) fallback. A cell count
// the address plan cannot hold is rejected the same way.
func TestShardedZeroLatencyRejected(t *testing.T) {
	opts := tcpfailover.ShardedOptions{
		Cells:  2,
		Shards: 2,
		Cell:   tcpfailover.LANOptions(),
	}
	_, err := tcpfailover.NewSharded(opts)
	if err == nil {
		t.Fatal("zero-latency cross-domain link accepted")
	}
	if !strings.Contains(err.Error(), "latency") {
		t.Errorf("unhelpful error: %v", err)
	}
	opts.Shards = 1
	if _, err := tcpfailover.NewSharded(opts); err != nil {
		t.Errorf("sequential fallback rejected: %v", err)
	}
	for _, cells := range []int{0, 65} {
		opts.Cells = cells
		if _, err := tcpfailover.NewSharded(opts); err == nil {
			t.Errorf("%d cells accepted", cells)
		}
	}
}
