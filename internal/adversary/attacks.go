// The attack models: composable, seeded, scheduled into the event loop at
// Launch time. Every random draw happens inside Launch — before any event
// runs — so the forged frames are a pure function of the station seed and
// the attack parameters, independent of event interleaving, worker count,
// and shard layout.
package adversary

import (
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/tcp"
)

// Outcome classifies what an attack did to the measured connection.
type Outcome string

// Attack outcomes reported in the E11 matrix.
const (
	// OutcomeIntact: the connection survived and the workload completed.
	OutcomeIntact Outcome = "intact"
	// OutcomeReset: an endpoint's TCP connection was torn down by a forged
	// segment (standard TCP's blind-RST failure mode).
	OutcomeReset Outcome = "reset"
	// OutcomeWedged: the endpoints survive but the bridge's per-connection
	// state was destroyed, so the stream stalls forever — the failover
	// topology's blind-RST failure mode, strictly worse than a clean reset
	// because the client is never told.
	OutcomeWedged Outcome = "wedged"
	// OutcomeHijacked: a forged gratuitous ARP rebound the service address
	// to the rogue station, which now receives the victim's traffic.
	OutcomeHijacked Outcome = "hijacked"
	// OutcomeAmplified: forged stale-data segments made the victim reflect
	// acknowledgment traffic at the (spoofed) client — an ACK-storm
	// amplification primitive.
	OutcomeAmplified Outcome = "amplified"
	// OutcomeExhausted: a spoofed SYN flood grew per-connection state
	// without bound (flow tables tracked ~every flood entry).
	OutcomeExhausted Outcome = "state-exhausted"
)

// RSTInjection forges connection-killing RST probes from Src toward Dst
// with uniformly random sequence numbers: the blind off-path teardown
// attack of RFC 5961's threat model. Against a bridge that trusts the wire
// any probe wipes the tracked connection, and against an endpoint with the
// legacy half-space test a probe lands with probability ~1/2; in-window
// validation makes a probe hit a 2^16-wide window in a 2^32 space.
type RSTInjection struct {
	Src, Dst         ipv4.Addr
	SrcPort, DstPort uint16
	Probes           int           // default 8
	Start            time.Duration // absolute virtual time of the first probe
	Spacing          time.Duration // default 1ms
}

// Launch schedules the probes.
func (a RSTInjection) Launch(st *Station) {
	probes, spacing := a.Probes, a.Spacing
	if probes == 0 {
		probes = 8
	}
	if spacing == 0 {
		spacing = time.Millisecond
	}
	rng := st.Rand("rst")
	for i := 0; i < probes; i++ {
		seq := tcp.Seq(rng.Uint64())
		ack := tcp.Seq(rng.Uint64())
		st.sched.At(a.Start+time.Duration(i)*spacing, "adversary.rst", func() {
			st.InjectTCP(a.Src, a.Dst, &tcp.Segment{
				SrcPort: a.SrcPort,
				DstPort: a.DstPort,
				Seq:     seq,
				Ack:     ack,
				Flags:   tcp.FlagRST | tcp.FlagACK,
			})
		})
	}
}

// ARPTakeover forges gratuitous ARP announcements claiming Victim for the
// rogue station's MAC — the paper's own takeover mechanism turned against
// it. On an unauthenticated LAN the router rebinds the service address and
// the live connection's client-bound path tilts into the attacker.
type ARPTakeover struct {
	Victim    ipv4.Addr
	Start     time.Duration
	Announces int           // default 3
	Spacing   time.Duration // default 10ms
}

// Launch schedules the announcements.
func (a ARPTakeover) Launch(st *Station) {
	n, spacing := a.Announces, a.Spacing
	if n == 0 {
		n = 3
	}
	if spacing == 0 {
		spacing = 10 * time.Millisecond
	}
	for i := 0; i < n; i++ {
		st.sched.At(a.Start+time.Duration(i)*spacing, "adversary.arp", func() {
			st.InjectGratuitousARP(a.Victim)
		})
	}
}

// AckStorm forges stale data segments from Src toward Dst with random
// sequence numbers and a small garbage payload. A receiver that answers
// old data with a duplicate acknowledgment — which plain TCP must, and a
// bridge without in-window validation does from its own state — reflects a
// frame at the spoofed source per hit, turning the victim into an ACK
// amplifier aimed at whoever the attacker names as Src.
type AckStorm struct {
	Src, Dst         ipv4.Addr
	SrcPort, DstPort uint16
	Segments         int // default 64
	PayloadLen       int // default 32
	Start            time.Duration
	Spacing          time.Duration // default 200µs
}

// Launch schedules the storm.
func (a AckStorm) Launch(st *Station) {
	n, plen, spacing := a.Segments, a.PayloadLen, a.Spacing
	if n == 0 {
		n = 64
	}
	if plen == 0 {
		plen = 32
	}
	if spacing == 0 {
		spacing = 200 * time.Microsecond
	}
	rng := st.Rand("ackstorm")
	payload := make([]byte, plen)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	for i := 0; i < n; i++ {
		seq := tcp.Seq(rng.Uint64())
		ack := tcp.Seq(rng.Uint64())
		st.sched.At(a.Start+time.Duration(i)*spacing, "adversary.ackstorm", func() {
			st.InjectTCP(a.Src, a.Dst, &tcp.Segment{
				SrcPort: a.SrcPort,
				DstPort: a.DstPort,
				Seq:     seq,
				Ack:     ack,
				Flags:   tcp.FlagACK | tcp.FlagPSH,
				Window:  65535,
				Payload: payload,
			})
		})
	}
}

// SYNFlood sprays connection-request segments at Target:Port from spoofed,
// unroutable sources, churning the victim's per-connection tables: every
// distinct (source, port) tuple costs the bridges a flow entry and the
// server's TCP layer an embryonic connection, while the SYN-ACKs die on
// the way to addresses that answer to nobody.
type SYNFlood struct {
	Target  ipv4.Addr
	Port    uint16
	Sources []ipv4.Addr // spoofed source pool, cycled; must be non-empty
	Count   int         // default 256
	Start   time.Duration
	Spacing time.Duration // default 200µs
}

// Launch schedules the flood.
func (a SYNFlood) Launch(st *Station) {
	count, spacing := a.Count, a.Spacing
	if count == 0 {
		count = 256
	}
	if spacing == 0 {
		spacing = 200 * time.Microsecond
	}
	rng := st.Rand("synflood")
	for i := 0; i < count; i++ {
		src := a.Sources[i%len(a.Sources)]
		srcPort := uint16(20000 + i)
		seq := tcp.Seq(rng.Uint64())
		st.sched.At(a.Start+time.Duration(i)*spacing, "adversary.synflood", func() {
			st.InjectTCP(src, a.Target, &tcp.Segment{
				SrcPort: srcPort,
				DstPort: a.Port,
				Seq:     seq,
				Flags:   tcp.FlagSYN,
				Window:  65535,
				Options: []tcp.Option{tcp.MSSOption(1460)},
			})
		})
	}
}
