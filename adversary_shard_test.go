package tcpfailover_test

import (
	"reflect"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/adversary"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// TestAdversaryShardedDifferential extends the sharded byte-identity gate
// to the attack machinery: a rogue station on cell 0's server LAN runs a
// forged-ARP takeover and a spoofed SYN flood against the live service
// while both cells carry streams. Partitioning the cells across 1 or 2
// domain schedulers must not change a single event: per-stream digests,
// the merged metrics snapshot, delivered bytes, and the attacker's own
// counters must be byte-identical — forged frames are drawn from the
// station seed before the event loop runs, never from execution order.
func TestAdversaryShardedDifferential(t *testing.T) {
	type result struct {
		digests   []sim.StreamDigest
		snapshot  []byte
		received  []int64
		injected  int64
		snooped   int64
		unicastRx int64
		rejected  int64 // forged bindings cell 0's ARP filters refused
	}
	run := func(shards int) result {
		t.Helper()
		opts := tcpfailover.LANOptions()
		opts.ServerPorts = []uint16{80}
		ss, scs := newEngine(t, 2, shards, opts, func(h *netstack.Host) error {
			_, err := apps.NewPushServer(h.TCP(), 80, 256*1024)
			return err
		})

		// The rogue station snoops cell 0's server LAN and attacks its
		// service address mid-stream.
		cell0 := ss.Cells[0]
		cell0.Stream.Use()
		st := adversary.Attach(cell0.Sched, cell0.ServerLAN,
			ethernet.MAC{2, 0, 0, 0, 0, 0xad}, 99)
		adversary.ARPTakeover{Victim: cell0.ServiceAddr(), Start: 30 * time.Millisecond}.Launch(st)
		srcs := make([]ipv4.Addr, 16)
		for i := range srcs {
			srcs[i] = ipv4.AddrFrom4(10, 99, 9, byte(1+i))
		}
		adversary.SYNFlood{Target: cell0.ServiceAddr(), Port: 80,
			Sources: srcs, Count: 64, Start: 40 * time.Millisecond}.Launch(st)

		var recvs []*apps.Receiver
		for _, cell := range ss.Cells {
			cell.Stream.Use()
			conn, err := cell.Client.TCP().Dial(cell.ServiceAddr(), 80)
			if err != nil {
				t.Fatalf("dial cell %d: %v", cell.Index, err)
			}
			recvs = append(recvs, apps.NewReceiver(conn, cell.Sched))
		}
		if err := ss.RunUntil(400 * time.Millisecond); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		r := result{
			digests:   ss.Digests(),
			injected:  st.Injected,
			snooped:   st.Snooped,
			unicastRx: st.UnicastRx,
		}
		for _, recv := range recvs {
			r.received = append(r.received, recv.Received)
		}
		for _, h := range []*netstack.Host{cell0.Router, cell0.Primary, cell0.Secondary} {
			r.rejected += h.Iface(0).ARP().RejectedBindings()
		}
		r.snapshot = mergedSnapshot(t, scs)
		return r
	}

	seq := run(1)
	par := run(2)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("adversarial sharded run differs between 1 and 2 shards:\n"+
			"shards=1: injected=%d snooped=%d unicastRx=%d received=%v digests=%v\n"+
			"shards=2: injected=%d snooped=%d unicastRx=%d received=%v digests=%v",
			seq.injected, seq.snooped, seq.unicastRx, seq.received, seq.digests,
			par.injected, par.snooped, par.unicastRx, par.received, par.digests)
	}
	if seq.injected == 0 || seq.snooped == 0 {
		t.Errorf("attacker inactive: injected=%d snooped=%d", seq.injected, seq.snooped)
	}
	// The forged announces must actually reach cell 0's stations — and be
	// refused there — or the differential is comparing an idle attacker.
	if seq.rejected == 0 {
		t.Errorf("cell 0's ARP filters rejected no forged binding")
	}
}
