package tcpfailover_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// TestLoadgenShardedDifferential extends the sharded byte-identity gate to
// the open-loop load generator: both cells run workload-zoo traffic against
// their HTTP service while cell 0's primary crashes mid-run. Partitioning
// the four cells across 1, 2 or 4 domain schedulers (under -race this is
// also the gate that the per-stack application scratch buffer is never
// shared between domains) must not change a single event
// — per-stream digests, the merged metrics snapshot, and every generator
// counter (including the full latency histogram) must be identical. The
// generator makes this possible by pre-drawing each session's shape from
// its own split stream at the arrival instant, so no random draw depends on
// cross-cell event interleaving.
func TestLoadgenShardedDifferential(t *testing.T) {
	type result struct {
		digests  []sim.StreamDigest
		snapshot []byte
		stats    []loadgen.Stats
	}
	run := func(shards int) result {
		t.Helper()
		opts := tcpfailover.ShardedOptions{
			Cells:     4,
			Shards:    shards,
			Cell:      tcpfailover.LANOptions(),
			CrossLink: ethernet.XConfig{Latency: 500 * time.Microsecond},
			Digest:    true,
		}
		opts.Cell.ServerPorts = []uint16{80}
		ss, err := tcpfailover.NewSharded(opts)
		if err != nil {
			t.Fatalf("sharded scenario: %v", err)
		}
		for _, cell := range ss.Cells {
			cell.Stream.Use()
			if err := cell.Group.OnEach(func(h *netstack.Host) error {
				_, err := apps.NewHTTPServer(h.TCP(), 80)
				return err
			}); err != nil {
				t.Fatalf("cell %d install: %v", cell.Index, err)
			}
		}
		ss.Start()

		spec, err := loadgen.Zoo("web", 40)
		if err != nil {
			t.Fatal(err)
		}
		gens := make([]*loadgen.Generator, len(ss.Cells))
		for _, cell := range ss.Cells {
			cell.Stream.Use()
			gens[cell.Index] = loadgen.New(loadgen.Config{
				Sched: cell.Sched,
				Stack: cell.Client.TCP(),
				Addr:  cell.ServiceAddr(),
				Port:  80,
				Spec:  spec,
				Rand:  fault.NewRand(uint64(1000 + cell.Index)),
				Stop:  1200 * time.Millisecond,
			})
			gens[cell.Index].Start(0)
		}
		// Crash cell 0's primary mid-run; the takeover happens under load.
		cell0 := ss.Cells[0]
		cell0.Stream.Use()
		cell0.Sched.At(600*time.Millisecond, "test.crash", func() {
			cell0.Group.Crash(0)
		})

		if err := ss.RunUntil(2 * time.Second); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		r := result{digests: ss.Digests()}
		for _, g := range gens {
			r.stats = append(r.stats, g.Stats)
		}
		blob, err := json.Marshal(ss.MergedSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		r.snapshot = blob
		return r
	}

	seq := run(1)
	for _, shards := range []int{2, 4} {
		par := run(shards)
		if reflect.DeepEqual(seq, par) {
			continue
		}
		t.Errorf("open-loop sharded run differs between 1 and %d shards", shards)
		for i := range seq.stats {
			if !reflect.DeepEqual(seq.stats[i], par.stats[i]) {
				t.Errorf("cell %d stats:\nshards=1: %+v\nshards=%d: %+v",
					i, statsLine(seq.stats[i]), shards, statsLine(par.stats[i]))
			}
		}
		if !reflect.DeepEqual(seq.digests, par.digests) {
			t.Errorf("digests:\nshards=1: %v\nshards=%d: %v", seq.digests, shards, par.digests)
		}
	}
	// The differential must compare live traffic, including a completed
	// takeover on the crashed cell.
	for i, st := range seq.stats {
		if st.Arrivals == 0 || st.Completed == 0 {
			t.Errorf("cell %d generator idle: arrivals=%d completed=%d",
				i, st.Arrivals, st.Completed)
		}
	}
}

// statsLine summarizes a Stats for failure output without dumping the
// histogram's 1888 buckets.
func statsLine(s loadgen.Stats) string {
	b, _ := json.Marshal(map[string]int64{
		"arrivals": s.Arrivals, "dialErrors": s.DialErrors, "requests": s.Requests,
		"completed": s.Completed, "failed": s.Failed, "bytesIn": s.BytesIn,
		"latN": s.Lat.N(), "latMax": int64(s.Lat.Max()),
	})
	return string(b)
}
