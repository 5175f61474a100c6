// Package core implements the paper's contribution: the TCP Failover
// bridge, a sublayer that resides between the TCP layer and the IP layer of
// the primary and secondary servers' network stacks.
//
// The SecondaryBridge runs on the secondary server S. It puts the NIC in
// promiscuous mode, translates the destination address of client segments
// addressed to the primary P so that S's own TCP layer processes them, and
// diverts every segment S's TCP layer emits toward a client to P instead,
// tagging it with the original destination as a TCP header option.
//
// The PrimaryBridge runs on the primary server P. It holds segments P's own
// TCP layer produces, translates their sequence numbers into the
// secondary's sequence space by subtracting Delta-seq = seqP,init -
// seqS,init, matches their payload byte-for-byte against the segments
// received from S, and releases to the client only bytes both replicas have
// produced — with acknowledgment and window fields set to the minimum of
// the two replicas' values. On failure of either server the corresponding
// bridge reconfigures per sections 5 and 6 of the paper.
package core

import (
	"tcpfailover/internal/flowtab"
	"tcpfailover/internal/ipv4"
)

// TupleKey identifies a replicated connection from the bridge's viewpoint:
// the unreplicated peer endpoint (the client, or the back-end server T for
// server-initiated connections) plus the replicated server's port, packed
// addr<<32 | peerPort<<16 | localPort. The packing fills the word exactly
// (32+16+16 bits), so it is collision-free; a plain uint64 key routes the
// bridges' per-segment map lookups through the runtime's fast64 access
// paths, which a same-sized struct key does not get.
type TupleKey uint64

// MakeTupleKey packs a peer endpoint and replicated-server port into a
// TupleKey.
func MakeTupleKey(peer ipv4.Addr, peerPort, localPort uint16) TupleKey {
	return TupleKey(uint64(peer)<<32 | uint64(peerPort)<<16 | uint64(localPort))
}

// PeerAddr returns the unreplicated peer's address.
func (k TupleKey) PeerAddr() ipv4.Addr { return ipv4.Addr(k >> 32) }

// PeerPort returns the unreplicated peer's port.
func (k TupleKey) PeerPort() uint16 { return uint16(k >> 16) }

// LocalPort returns the replicated server's port.
func (k TupleKey) LocalPort() uint16 { return uint16(k) }

// Selector decides which TCP connections are failover connections. The
// paper implements two methods (section 7): a per-socket option, and a
// user-specified set of port numbers; the same configuration must be
// installed on the primary and the secondary. Selector supports both:
// server ports (the replicated server's listening ports), peer ports (for
// server-initiated connections to well-known back-end ports), and explicit
// per-connection tuples (the socket-option method).
// The port sets are flowtab bitsets rather than maps: Match sits on the
// snoop and divert paths of every segment the secondary handles, which
// keeps no per-flow verdict of its own, and a bitset probe is a shift and
// an indexed load with nothing for the garbage collector to follow. The
// explicit-tuple set is a flowtab.Table for the same reason.
type Selector struct {
	serverPorts flowtab.PortSet
	peerPorts   flowtab.PortSet
	tuples      flowtab.Table
}

// NewSelector returns an empty selector.
func NewSelector() *Selector {
	return &Selector{}
}

// EnableServerPort marks every connection whose replicated-server port is p
// as a failover connection (paper's method 2, for server sockets).
func (s *Selector) EnableServerPort(p uint16) { s.serverPorts.Add(p) }

// EnablePeerPort marks every connection toward remote port p as a failover
// connection; used for server-initiated connections to an unreplicated
// back-end (paper section 7.2).
func (s *Selector) EnablePeerPort(p uint16) { s.peerPorts.Add(p) }

// EnableTuple marks one specific connection (paper's method 1, the
// per-socket option).
func (s *Selector) EnableTuple(k TupleKey) { s.tuples.Put(uint64(k), 1) }

// DisableServerPort removes a server port from the set.
func (s *Selector) DisableServerPort(p uint16) { s.serverPorts.Remove(p) }

// Match reports whether a connection identified by k is a failover
// connection.
func (s *Selector) Match(k TupleKey) bool {
	if s.serverPorts.Contains(k.LocalPort()) || s.peerPorts.Contains(k.PeerPort()) {
		return true
	}
	_, ok := s.tuples.Get(uint64(k))
	return ok
}

// ServerPorts returns the configured server ports in ascending order.
func (s *Selector) ServerPorts() []uint16 {
	return s.serverPorts.Append(make([]uint16, 0, s.serverPorts.Len()))
}
