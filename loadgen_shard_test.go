package tcpfailover_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// TestCellsMatchLockstepEngine: the same four-cell web load, cell 0's
// primary crashed mid-run, through NewCells and through NewSharded at 1 and
// 2 shards. Each cell executes as many events (its stream 0 against the
// engine's stream i+1), and generator stats, latency histograms included,
// and merged snapshots match. Digests fold in each event's stream id, so
// only the engine's two partitions compare them.
func TestCellsMatchLockstepEngine(t *testing.T) {
	const cells, horizon = 4, 2 * time.Second
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = []uint16{80}
	install := func(h *netstack.Host) error {
		_, err := apps.NewHTTPServer(h.TCP(), 80)
		return err
	}
	spec, err := loadgen.Zoo("web", 40)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		executed []int64
		snapshot []byte
		stats    []loadgen.Stats
	}
	// load starts cell i's generator and, in cell 0, arms the crash; the
	// takeover happens under load. An engine cell's stream must be current.
	var gens []*loadgen.Generator
	load := func(i int, sc *tcpfailover.Scenario) {
		g := loadgen.New(loadgen.Config{
			Sched: sc.Sched,
			Stack: sc.Client.TCP(),
			Addr:  sc.ServiceAddr(),
			Port:  80,
			Spec:  spec,
			Rand:  fault.NewRand(uint64(1000 + i)),
			Stop:  1200 * time.Millisecond,
		})
		g.Start(0)
		gens = append(gens, g)
		if i == 0 {
			sc.Sched.At(600*time.Millisecond, "test.crash", func() { sc.Group.Crash(0) })
		}
	}
	finish := func(r *result, scs []*tcpfailover.Scenario) {
		r.snapshot = mergedSnapshot(t, scs)
		for _, g := range gens {
			r.stats = append(r.stats, g.Stats)
		}
		gens = nil
	}

	// The engine runs first: its rings stay live, and the cells' checker
	// counts only what is live beyond them.
	engine := func(shards int) (r result, digests []sim.StreamDigest) {
		ss, scs := newEngine(t, cells, shards, opts, install)
		for _, cell := range ss.Cells {
			cell.Stream.Use()
			load(cell.Index, cell.Scenario)
		}
		if err := ss.RunUntil(horizon); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		digests = ss.Digests()
		for _, d := range digests[:cells] { // cell streams 1..cells sort first
			r.executed = append(r.executed, d.Executed)
		}
		finish(&r, scs)
		return r, digests
	}
	seq, seqDigests := engine(1)
	par, parDigests := engine(2)

	fleet := newCells(t, cells, opts, install)
	var got result
	for i, sc := range fleet {
		load(i, sc)
		// Scheduler.RunUntil is closed, ShardGroup.RunUntil half-open.
		if err := sc.Sched.RunUntil(horizon - 1); err != nil {
			t.Fatal(err)
		}
		got.executed = append(got.executed, int64(sc.Sched.Executed()))
	}
	finish(&got, fleet)

	if !reflect.DeepEqual(seqDigests, parDigests) {
		t.Errorf("digests:\nshards=1: %v\nshards=2: %v", seqDigests, parDigests)
	}
	for i, eng := range []result{seq, par} {
		if !reflect.DeepEqual(got, eng) {
			t.Errorf("cells differ from shards=%d: executed %v vs %v, stats equal %t, snapshots equal %t", i+1,
				got.executed, eng.executed, reflect.DeepEqual(got.stats, eng.stats), bytes.Equal(got.snapshot, eng.snapshot))
		}
	}
	// The gate must compare live traffic and a completed takeover.
	for i, st := range got.stats {
		if st.Arrivals == 0 || st.Completed == 0 {
			t.Errorf("cell %d generator idle: arrivals=%d completed=%d", i, st.Arrivals, st.Completed)
		}
	}
}
