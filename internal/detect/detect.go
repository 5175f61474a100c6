// Package detect implements the fault detector the paper's system employs
// to detect the failure of a server process or server host (section 2). It
// exchanges periodic heartbeats over a raw IP protocol on the server LAN
// and declares the peer failed when no heartbeat arrives within the
// timeout. Detection latency adds directly to the failover window T.
package detect

import (
	"encoding/binary"
	"time"

	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/sim"
)

// The detector's constants no caller varies.
const (
	period  = 10 * time.Millisecond // between heartbeats, and between checks
	timeout = 50 * time.Millisecond // without a heartbeat before declaring failure
)

// Detector watches one peer from one host.
type Detector struct {
	host      *netstack.Host
	sched     *sim.Scheduler
	localAddr ipv4.Addr
	peerAddr  ipv4.Addr
	onFailure func()
	claim     ipv4.Addr // announced in the heartbeats while the host owns it
	onClaim   func()    // runs for each of the peer's heartbeats that announces it

	lastHeard time.Duration
	seq       uint64
	started   bool
	stopped   bool
	fired     bool

	sendTimer  sim.Timer
	checkTimer sim.Timer

	// The two recurring callbacks, bound once, and the heartbeat's sequence
	// bytes: a period of steady-state heartbeating allocates nothing.
	send, check func()
	payload     [8]byte
}

// New creates a detector on host watching peerAddr. onFailure runs once,
// inside the simulation loop, when the peer is declared failed.
func New(host *netstack.Host, localAddr, peerAddr ipv4.Addr, onFailure func()) *Detector {
	d := &Detector{
		host:      host,
		sched:     host.Scheduler(),
		localAddr: localAddr,
		peerAddr:  peerAddr,
		onFailure: onFailure,
	}
	d.send, d.check = d.sendHeartbeat, d.checkPeer
	return d
}

// Start registers the heartbeat protocol handler and begins the exchange.
func (d *Detector) Start() {
	if d.started {
		return
	}
	d.started = true
	d.lastHeard = d.sched.Now()
	d.host.RegisterProtocol(ipv4.ProtoHeartbeat, func(hdr ipv4.Header, payload []byte) {
		if hdr.Src == d.peerAddr {
			d.lastHeard = d.sched.Now()
			if d.onClaim != nil && len(payload) == len(d.payload) && payload[0]&claimBit != 0 {
				d.onClaim()
			}
		}
	})
	d.sendHeartbeat()
	d.scheduleCheck()
}

// Stop halts the detector.
func (d *Detector) Stop() {
	d.stopped = true
	d.sendTimer.Stop()
	d.checkTimer.Stop()
}

// claimBit, the top bit of a heartbeat's 8-byte sequence number, says that
// its sender owns the claimed address.
const claimBit = 0x80

// Claim sets the claim bit in the heartbeats while the host owns addr, and
// runs onClaim for each heartbeat from the peer that carries it.
func (d *Detector) Claim(addr ipv4.Addr, onClaim func()) { d.claim, d.onClaim = addr, onClaim }

func (d *Detector) sendHeartbeat() {
	if d.stopped || !d.host.Alive() {
		return
	}
	binary.BigEndian.PutUint64(d.payload[:], d.seq)
	if d.onClaim != nil && d.host.Owns(d.claim) {
		d.payload[0] |= claimBit
	}
	d.seq++
	_ = d.host.SendIP(d.localAddr, d.peerAddr, ipv4.ProtoHeartbeat, d.payload[:])
	d.sendTimer = d.sched.After(period, "detect.heartbeat", d.send)
}

func (d *Detector) scheduleCheck() {
	if d.stopped || d.fired {
		return
	}
	d.checkTimer = d.sched.After(period, "detect.check", d.check)
}

func (d *Detector) checkPeer() {
	if d.stopped || d.fired || !d.host.Alive() {
		return
	}
	if d.sched.Now()-d.lastHeard > timeout {
		d.fired = true
		d.onFailure()
		return
	}
	d.scheduleCheck()
}
