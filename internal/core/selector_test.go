package core

import (
	"testing"

	"tcpfailover/internal/ipv4"
)

func TestSelectorServerPorts(t *testing.T) {
	s := NewSelector()
	s.EnableServerPort(80)
	s.EnableServerPort(21)

	client := ipv4.MustParseAddr("10.0.2.1")
	if !s.Match(MakeTupleKey(client, 49152, 80)) {
		t.Error("port 80 connection not matched")
	}
	if s.Match(MakeTupleKey(client, 49152, 8080)) {
		t.Error("unrelated port matched")
	}
	ports := s.ServerPorts()
	if len(ports) != 2 || ports[0] != 21 || ports[1] != 80 {
		t.Errorf("ServerPorts = %v", ports)
	}
}

func TestSelectorPeerPorts(t *testing.T) {
	// Section 7.2: server-initiated connections to a back-end port.
	s := NewSelector()
	s.EnablePeerPort(5432)
	backend := ipv4.MustParseAddr("10.0.2.1")
	if !s.Match(MakeTupleKey(backend, 5432, 49152)) {
		t.Error("back-end connection not matched")
	}
	if s.Match(MakeTupleKey(backend, 5433, 49152)) {
		t.Error("wrong peer port matched")
	}
}

func TestSelectorTuples(t *testing.T) {
	// The paper's per-socket method: one specific connection.
	s := NewSelector()
	k := MakeTupleKey(ipv4.MustParseAddr("10.0.2.1"), 1234, 9999)
	s.EnableTuple(k)
	if !s.Match(k) {
		t.Error("explicit tuple not matched")
	}
	other := MakeTupleKey(k.PeerAddr(), 1235, k.LocalPort())
	if s.Match(other) {
		t.Error("different tuple matched")
	}
}
