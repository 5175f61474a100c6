package tcpfailover_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/obs"
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

// crashAt > 0 crashes cell 0's primary at that instant and forces a window
// barrier there.
func runShardedEcho(t *testing.T, cells, shards int, crashAt time.Duration) shardRunResult {
	t.Helper()
	ss, scs := newEngine(t, cells, shards, tcpfailover.LANOptions(), echoServer)

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
	if crashAt > 0 {
		cell0 := ss.Cells[0]
		cell0.Stream.Use()
		cell0.Sched.At(crashAt, "test.crash", func() { cell0.Group.Crash(0) })
	}

	done := func() bool {
		for _, cl := range clients {
			if !cl.closed {
				return false
			}
		}
		return true
	}
	if crashAt > 0 {
		// Force a window barrier exactly at the crash (RunUntil clamps the
		// final window edge to its deadline).
		if err := ss.RunUntil(crashAt); err != nil {
			t.Fatalf("run to barrier: %v", err)
		}
		if got := ss.Now(); got != crashAt {
			t.Fatalf("barrier at %v, want %v", got, crashAt)
		}
	}
	// Check at fixed 1 ms virtual instants, not at window barriers, which
	// move with the partition.
	for !done() && ss.Now() < 5*time.Minute {
		if err := ss.RunUntil(ss.Now() + time.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if !done() {
		for i, cl := range clients {
			if !cl.closed {
				t.Errorf("client %d not closed (received=%d)", i, cl.received)
			}
		}
		t.Fatal("traffic did not finish")
	}

	res := shardRunResult{digests: ss.Digests(), snapshot: mergedSnapshot(t, scs), executed: ss.Executed()}
	for _, cl := range clients {
		res.received = append(res.received, cl.received)
	}
	return res
}

// TestShardedDifferential is the engine's acceptance test: identical seeds
// through shards=1 (sequential) and shards=2/4 must produce byte-identical
// per-stream digests, merged metrics snapshots, and traffic outcomes.
func TestShardedDifferential(t *testing.T) { sameAcrossShards(t, 0) }

// TestShardedCrashOnWindowBarrier pins the degenerate case of a failure
// firing exactly on a window barrier: cell 0's primary crashes at an
// instant that is forced to be a window edge, and the failover must still
// complete byte-identically across shard counts.
func TestShardedCrashOnWindowBarrier(t *testing.T) { sameAcrossShards(t, 100*time.Millisecond) }

func sameAcrossShards(t *testing.T, crashAt time.Duration) {
	t.Helper()
	base := runShardedEcho(t, 4, 1, crashAt)
	for _, shards := range []int{2, 4} {
		if got := runShardedEcho(t, 4, shards, crashAt); !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d diverges from sequential: executed %d vs %d, received %v vs %v, snapshots equal %t\n seq: %+v\n got: %+v",
				shards, got.executed, base.executed, got.received, base.received, bytes.Equal(got.snapshot, base.snapshot), base.digests, got.digests)
		}
	}
}

// TestShardedSingleCell covers the degenerate all-hosts-in-one-domain
// partition: one cell, shards clamped to 1, no trunks.
func TestShardedSingleCell(t *testing.T) {
	res := runShardedEcho(t, 1, 8, 0)
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
// the address plan cannot hold is rejected the same way, by NewSharded and
// by NewCells.
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
		if _, err := tcpfailover.NewCells(cells, opts.Cell); err == nil {
			t.Errorf("NewCells accepted %d cells", cells)
		}
	}
}

// newEngine builds cells testbed cells on the lockstep engine across shards
// domain schedulers, digests on, installs the service with install on every
// cell's members and starts them. It returns the cells as scenarios too.
func newEngine(t *testing.T, cells, shards int, cell tcpfailover.Options, install func(*netstack.Host) error) (*tcpfailover.ShardedScenario, []*tcpfailover.Scenario) {
	t.Helper()
	ss, err := tcpfailover.NewSharded(tcpfailover.ShardedOptions{
		Cells:     cells,
		Shards:    shards,
		Cell:      cell,
		CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
		Digest:    true,
	})
	if err != nil {
		t.Fatalf("sharded scenario: %v", err)
	}
	var scs []*tcpfailover.Scenario
	for _, c := range ss.Cells {
		c.Stream.Use()
		if err := c.Group.OnEach(install); err != nil {
			t.Fatalf("cell %d install: %v", c.Index, err)
		}
		scs = append(scs, c.Scenario)
	}
	ss.Start()
	return ss, scs
}

// mergedSnapshot marshals obs.MergeRegistries over the cells' registries,
// in cell order, less the scheduler's timer-arm counters: the engine
// detaches them, so only a NewCells fleet counts them.
func mergedSnapshot(t *testing.T, cells []*tcpfailover.Scenario) []byte {
	t.Helper()
	regs := make([]*obs.Registry, len(cells))
	for i, sc := range cells {
		regs[i] = sc.Obs
	}
	samples := slices.DeleteFunc(obs.MergeRegistries(regs...), func(s obs.Sample) bool { return strings.HasPrefix(s.Name, "sim_timer_") })
	blob, err := json.Marshal(samples)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return blob
}
