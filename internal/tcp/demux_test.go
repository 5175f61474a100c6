package tcp

import (
	"math/rand"
	"slices"
	"testing"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netbuf"
	"tcpfailover/internal/sim"
)

// TestDemuxAgainstTupleMap drives one stack through seeded programmes of
// accept, dial, Rebind, abort and close over a tuple space small enough that
// packed keys collide (Tuple.key leaves LocalAddr out), and after every step
// checks Lookup of every tuple, Conns() as a set and the connection count
// against a map[Tuple]*Conn. Connections open on two local addresses;
// Rebind may also move one onto a third, as takeover moves the secondary's
// connections onto the service address. The model keeps each key's
// connections newest first, the order the stack chains them, so the test
// can demand removals from a chain's head, middle and tail.
func TestDemuxAgainstTupleMap(t *testing.T) {
	locals := []ipv4.Addr{0x0a000001, 0x0a000002, 0x0a000003}
	remotes := []ipv4.Addr{0x0a010001, 0x0a010002, 0x0a010003}
	ports := []uint16{80, 81, 82, 83}
	var universe []Tuple
	for i := range 3 * 4 * 3 * 4 {
		universe = append(universe, Tuple{locals[i%3], ports[i/3%4], remotes[i/12%3], ports[i/36]})
	}
	var unlinked [3]int // chain head, middle, tail
	for seed := range 100 {
		rng := rand.New(rand.NewSource(int64(seed)))
		var out []byte // the last segment the stack sent
		local := locals[0]
		s := NewStack(sim.New(int64(seed)), Config{}, func(src, dst ipv4.Addr, pkt *netbuf.Buffer) error {
			SealChecksum(src, dst, pkt.Bytes())
			out = append(out[:0], pkt.Bytes()...)
			pkt.Release()
			return nil
		}, func(ipv4.Addr) (ipv4.Addr, bool) { return local, true })
		var accepted *Conn
		for _, p := range ports {
			if _, err := s.Listen(p, func(c *Conn) { accepted = c }); err != nil {
				t.Fatal(err)
			}
		}
		model, chains := map[Tuple]*Conn{}, map[uint64][]Tuple{}
		add := func(c *Conn) {
			model[c.tuple] = c
			chains[c.tuple.key()] = slices.Insert(chains[c.tuple.key()], 0, c.tuple)
		}
		remove := func(tu Tuple) {
			delete(model, tu)
			ch := chains[tu.key()]
			i := slices.Index(ch, tu)
			if len(ch) > 1 {
				unlinked[min(i, 1)+min(i/(len(ch)-1), 1)]++ // 0 head, 1 middle, 2 tail
			}
			chains[tu.key()] = slices.Delete(ch, i, i+1)
		}
		segment := func(tu Tuple, seg Segment) []byte {
			seg.SrcPort, seg.DstPort, seg.Window = tu.RemotePort, tu.LocalPort, 65535
			return Marshal(tu.RemoteAddr, tu.LocalAddr, &seg)
		}

		for step := range 600 {
			tu := universe[rng.Intn(len(universe))]
			c := model[tu]
			switch op := rng.Intn(5); {
			case op == 0 && c == nil && tu.LocalAddr != locals[2]: // accept
				accepted = nil
				s.Input(tu.RemoteAddr, tu.LocalAddr, segment(tu, Segment{Seq: 1000, Flags: FlagSYN}))
				synAck, err := Unmarshal(tu.LocalAddr, tu.RemoteAddr, out, true)
				if err != nil || synAck.Flags != FlagSYN|FlagACK {
					t.Fatalf("seed %d step %d: accept %v: no SYN-ACK (%v)", seed, step, tu, err)
				}
				s.Input(tu.RemoteAddr, tu.LocalAddr, segment(tu, Segment{Seq: 1001, Ack: synAck.Seq.Add(1), Flags: FlagACK}))
				if accepted == nil || accepted.tuple != tu {
					t.Fatalf("seed %d step %d: accept %v: not established", seed, step, tu)
				}
				add(accepted)
			case op == 1 && tu.LocalAddr != locals[2]: // dial
				local = tu.LocalAddr
				got, err := s.DialFrom(tu.LocalPort, tu.RemoteAddr, tu.RemotePort)
				if (err != nil) != (c != nil) {
					t.Fatalf("seed %d step %d: DialFrom %v: err %v with %p in the model", seed, step, tu, err, c)
				}
				if err == nil {
					add(got)
				}
			case op == 2: // Rebind
				nt := tu
				nt.LocalAddr = locals[rng.Intn(len(locals))]
				err := s.Rebind(tu, nt.LocalAddr)
				if want := c != nil && model[nt] == nil; (err == nil) != want {
					t.Fatalf("seed %d step %d: Rebind %v to %v: err %v, want success %v", seed, step, tu, nt.LocalAddr, err, want)
				}
				if err == nil {
					remove(tu)
					add(c)
				}
			case op == 3 && c != nil: // abort
				c.Abort()
				remove(tu)
			case op == 4 && c != nil: // close: a dialled connection, still in SYN-SENT, goes at once
				if c.Close(); c.State() == StateClosed {
					remove(tu)
				}
			}

			for _, u := range universe {
				if got, ok := s.Lookup(u); got != model[u] || ok != (got != nil) {
					t.Fatalf("seed %d step %d: Lookup %v = %p, %v; want %p", seed, step, u, got, ok, model[u])
				}
			}
			conns := s.Conns()
			for _, c := range conns {
				if model[c.tuple] != c {
					t.Fatalf("seed %d step %d: Conns() holds %v, which the model does not", seed, step, c.tuple)
				}
			}
			if len(conns) != len(model) {
				t.Fatalf("seed %d step %d: %d connections, want %d", seed, step, len(conns), len(model))
			}
		}
	}
	if slices.Contains(unlinked[:], 0) {
		t.Fatalf("removals from chain head / middle / tail: %v, want each at least once", unlinked)
	}
}
