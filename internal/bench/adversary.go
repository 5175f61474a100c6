package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/adversary"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/tcp"
)

// --- E11: adversarial attack-outcome matrix ----------------------------------

// adversaryAttacks is the attack axis of the matrix, in report order.
var adversaryAttacks = []string{"rst", "arp", "ackstorm", "synflood"}

// rogueMAC is the attacker station's hardware address — outside every cell
// plan, so no legitimate station answers for it.
var rogueMAC = ethernet.MAC{2, 0, 0, 0, 0, 0xad}

// AdversaryPoint is one cell of the attack-outcome matrix: one attack
// against one topology (standard TCP vs. the failover bridge pair). Every
// field is a function of virtual time and the seed, so the matrix is
// byte-identical across worker counts like every other experiment.
type AdversaryPoint struct {
	Attack   string `json:"attack"`
	Topology string `json:"topology"` // "standard" | "failover"
	Outcome  string `json:"outcome"`

	Injected    int64 `json:"frames_injected"`   // frames the attacker forged
	Delivered   int64 `json:"bytes_delivered"`   // client payload progress
	SeqDrops    int64 `json:"seq_invalid_drops"` // bridge in-window validation
	ARPFiltered int64 `json:"arp_rejected"`      // bindings the ARP filter refused

	Reflected     int64   `json:"reflected_frames"` // ackstorm: frames at the client
	Amplification float64 `json:"amplification"`    // ackstorm: reflected/injected

	BridgeConns   int   `json:"bridge_conns"`   // primary bridge table at end
	EndpointConns int   `json:"endpoint_conns"` // primary host's TCP table at end
	Evictions     int64 `json:"evictions"`      // LRU evictions (the primary's matcher)
	AttackerRx    int64 `json:"attacker_unicast_rx"`

	VirtualMS float64 `json:"virtual_ms"`
}

// AdversaryMatrix runs the E11 adversarial suite: four seeded attack
// models — blind RST injection, forged gratuitous-ARP takeover, stale-data
// ACK-storm reflection, and a spoofed SYN flood — each against both the
// standard-TCP baseline and the failover topology, with the defences every
// scenario runs (strict endpoint sequence validation, bridge in-window
// validation, ARP binding filters, LRU-capped flow tables).
// 4 attacks x 2 topologies = 8 cells.
func AdversaryMatrix() ([]AdversaryPoint, error) {
	type cell struct {
		attack   string
		failover bool
	}
	var cells []cell
	for _, a := range adversaryAttacks {
		for _, fo := range []bool{false, true} {
			cells = append(cells, cell{a, fo})
		}
	}
	points := make([]AdversaryPoint, len(cells))
	err := parallelEach(len(cells), func(j int) error {
		c := cells[j]
		p, err := runAdversaryCell(c.attack, c.failover, int64(11000+j))
		if err != nil {
			return fmt.Errorf("adversary %s/failover=%v: %w", c.attack, c.failover, err)
		}
		points[j] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// runAdversaryCell builds one scenario, wires the workload and the rogue
// station, launches the attack mid-stream, and classifies the outcome.
func runAdversaryCell(attack string, failover bool, seed int64) (AdversaryPoint, error) {
	const total = 1 << 20  // push-workload bytes
	const echoBytes = 64   // echo-workload request size
	const floodCount = 256 // synflood SYNs
	const stormSegs = 64   // ackstorm forged segments
	const flowCap = 64     // bridge table bound, so the flood reaches it

	echo := attack == "ackstorm"
	mode, install := Standard, pushServer(total)
	if failover {
		mode = Failover
	}
	if echo {
		install = func(s *tcp.Stack) error { _, err := apps.NewEchoServer(s, benchPort); return err }
	}
	sc, err := testbed(mode, seed, func(o *tcpfailover.Options) {
		o.MaxFlows = flowCap
	}, install)
	if err != nil {
		return AdversaryPoint{}, err
	}
	sc.Start()

	// The rogue station snoops the server LAN from t=0; by the time the
	// attack fires it has learned the victim MACs, the next hop toward the
	// client, and the connection's ephemeral port.
	st := adversary.Attach(sc.Sched, sc.ServerLAN, rogueMAC, uint64(seed))

	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), benchPort)
	if err != nil {
		return AdversaryPoint{}, err
	}
	recv := apps.NewReceiver(conn, sc.Sched)
	died := false
	conn.OnClose(func(err error) {
		if err != nil {
			died = true
		}
	})
	if echo {
		req := make([]byte, echoBytes)
		apps.Pattern(req, 0)
		conn.OnEstablished(func() { _, _ = conn.Write(req) })
	}

	service := sc.ServiceAddr()
	clientNIC := sc.Client.Iface(0).NIC()
	attackAt := 25 * time.Millisecond
	var measureEnd time.Duration // ackstorm/synflood: run at least this far
	var rxBase, injBase int64

	switch attack {
	case "rst":
		// The probe parameters need the snooped ephemeral port, so the
		// launch itself is an event: everything after it is still a pure
		// function of the seed.
		sc.Sched.At(attackAt, "adversary.launch", func() {
			peer, ok := st.PeerOf(service, benchPort)
			if !ok {
				return
			}
			adversary.RSTInjection{
				Src: peer.Addr, SrcPort: peer.Port,
				Dst: service, DstPort: benchPort,
				Start: attackAt + time.Millisecond,
			}.Launch(st)
		})
	case "arp":
		adversary.ARPTakeover{Victim: service, Start: attackAt}.Launch(st)
	case "ackstorm":
		stormStart := 50 * time.Millisecond
		measureEnd = stormStart + stormSegs*200*time.Microsecond + 300*time.Millisecond
		sc.Sched.At(stormStart, "adversary.launch", func() {
			rxBase = clientNIC.RxFrames()
			injBase = st.Injected
			peer, ok := st.PeerOf(service, benchPort)
			if !ok {
				return
			}
			adversary.AckStorm{
				Src: peer.Addr, SrcPort: peer.Port,
				Dst: service, DstPort: benchPort,
				Segments: stormSegs,
				Start:    stormStart + time.Millisecond,
			}.Launch(st)
		})
	case "synflood":
		srcs := make([]ipv4.Addr, 64)
		for i := range srcs {
			// An unrouted subnet: the SYN-ACKs die at the router and the
			// spoofed sources never answer, so embryonic state persists.
			srcs[i] = ipv4.AddrFrom4(10, 0, 9, byte(1+i))
		}
		adversary.SYNFlood{
			Target: service, Port: benchPort,
			Sources: srcs, Count: floodCount, Start: attackAt,
		}.Launch(st)
		measureEnd = attackAt + floodCount*200*time.Microsecond + 100*time.Millisecond
	}

	// Run the stream out, watching client progress. A stall longer than
	// stallAfter means the stream is dead even though nobody said so — the
	// signature of a wedged bridge or a hijacked address.
	const stallAfter = 5 * time.Second
	wantBytes := int64(total)
	if echo {
		wantBytes = echoBytes
	}
	done := func() bool {
		if echo {
			return recv.Received >= echoBytes && sc.Now() >= measureEnd
		}
		return recv.EOF
	}
	// A drained event queue ends either phase too: nothing more can happen.
	drained := func() bool { return sc.Sched.PendingEvents() == 0 }
	if err := sc.RunUntil(func() bool {
		return done() || died || drained() || sc.Now()-recv.LastAt > stallAfter
	}, time.Hour); err != nil {
		return AdversaryPoint{}, fmt.Errorf("%w (received=%d)", err, recv.Received)
	}
	// Keep running until the attack and its aftermath are fully on the
	// books (the stream can finish before the flood does).
	if err := sc.RunUntil(func() bool { return sc.Now() >= measureEnd || died || drained() }, time.Hour); err != nil {
		return AdversaryPoint{}, err
	}

	p := AdversaryPoint{
		Attack:     attack,
		Topology:   "standard",
		Injected:   st.Injected,
		Delivered:  recv.Received,
		AttackerRx: st.UnicastRx,
		VirtualMS:  float64(sc.Now()) / float64(time.Millisecond),
	}
	if failover {
		p.Topology = "failover"
		pb := sc.Group.PrimaryBridge()
		p.SeqDrops = pb.Stats().SeqInvalidDrops
		p.BridgeConns = pb.Conns()
		p.Evictions = pb.Stats().ConnsEvicted
	}
	p.EndpointConns = len(sc.Primary.TCP().Conns())
	for _, m := range []interface{ RejectedBindings() int64 }{
		sc.Router.Iface(0).ARP(), sc.Router.Iface(1).ARP(),
		sc.Client.Iface(0).ARP(), sc.Primary.Iface(0).ARP(),
	} {
		p.ARPFiltered += m.RejectedBindings()
	}
	if sc.Secondary != nil {
		p.ARPFiltered += sc.Secondary.Iface(0).ARP().RejectedBindings()
	}
	if attack == "ackstorm" {
		p.Reflected = clientNIC.RxFrames() - rxBase
		if inj := st.Injected - injBase; inj > 0 {
			p.Amplification = float64(p.Reflected) / float64(inj)
		}
	}

	completed := recv.Received >= wantBytes && recv.BadAt < 0 && !died
	established := 0
	for _, c := range sc.Primary.TCP().Conns() {
		if c.State() == tcp.StateEstablished {
			established++
		}
	}
	switch attack {
	case "rst":
		switch {
		case died:
			p.Outcome = string(adversary.OutcomeReset)
		case completed:
			p.Outcome = string(adversary.OutcomeIntact)
		case failover && p.BridgeConns == 0:
			// Bridge state gone, endpoints in limbo, client never told.
			p.Outcome = string(adversary.OutcomeWedged)
		case !failover && established == 0:
			// The forged RST tore the server endpoint down.
			p.Outcome = string(adversary.OutcomeReset)
		default:
			p.Outcome = string(adversary.OutcomeWedged)
		}
	case "arp":
		switch {
		case completed:
			p.Outcome = string(adversary.OutcomeIntact)
		case st.UnicastRx > 0:
			// The victim's traffic is arriving at the rogue MAC.
			p.Outcome = string(adversary.OutcomeHijacked)
		default:
			p.Outcome = string(adversary.OutcomeWedged)
		}
	case "ackstorm":
		if p.Amplification >= 0.25 {
			p.Outcome = string(adversary.OutcomeAmplified)
		} else {
			p.Outcome = string(adversary.OutcomeIntact)
		}
	case "synflood":
		grown := p.BridgeConns
		if !failover {
			grown = p.EndpointConns
		}
		if grown >= floodCount*3/4 {
			p.Outcome = string(adversary.OutcomeExhausted)
		} else {
			p.Outcome = string(adversary.OutcomeIntact)
		}
	}
	return p, nil
}

func renderAdversary(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E11 (extension): adversarial attack-outcome matrix ===")
	fmt.Fprintln(w, "(seeded in-LAN attacker vs a live connection: blind RST probes,")
	fmt.Fprintln(w, " forged gratuitous-ARP takeover, stale-data ACK reflection, and a")
	fmt.Fprintln(w, " spoofed SYN flood, against both topologies and the defences every")
	fmt.Fprintln(w, " scenario runs; every cell is a pure function of its seed)")
	fmt.Fprintf(w, "%10s %10s %16s %9s %10s %6s %7s %7s %7s\n",
		"attack", "topology", "outcome", "injected", "delivered", "drops", "arpRej", "amp", "evict")
	points := r.Adversary
	for i, p := range points {
		if i > 0 && p.Attack != points[i-1].Attack {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%10s %10s %16s %9d %10d %6d %7d %7.2f %7d\n",
			p.Attack, p.Topology, p.Outcome, p.Injected, p.Delivered,
			p.SeqDrops, p.ARPFiltered, p.Amplification, p.Evictions)
	}
	fmt.Fprintln(w)
}
