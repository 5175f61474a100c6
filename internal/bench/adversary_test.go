package bench

import "testing"

// TestAdversaryMatrixOutcomes pins the shape of the matrix: every failover
// cell is intact, and the standard cells break only at the two honest
// limits. The exact expected outcome per cell is asserted so a regression
// in either an attack model or a defense flips a named cell, not a vague
// aggregate.
func TestAdversaryMatrixOutcomes(t *testing.T) {
	points := small(t, "adversary").Adversary
	if len(points) != 8 {
		t.Fatalf("got %d cells, want 8", len(points))
	}
	want := map[[2]string]string{
		{"rst", "standard"}:      "intact",
		{"rst", "failover"}:      "intact",
		{"arp", "standard"}:      "intact",
		{"arp", "failover"}:      "intact",
		{"ackstorm", "standard"}: "amplified", // RFC dup-ACKs: the endpoint's in-window test covers RST/SYN only
		{"ackstorm", "failover"}: "intact",
		{"synflood", "standard"}: "state-exhausted", // SYN cookies are out of scope
		{"synflood", "failover"}: "intact",
	}
	for _, p := range points {
		key := [2]string{p.Attack, p.Topology}
		t.Logf("%-8s %-8s -> %-15s injected=%d delivered=%d seqDrops=%d arpRejected=%d amp=%.2f bridgeConns=%d endpointConns=%d evictions=%d attackerRx=%d",
			p.Attack, p.Topology, p.Outcome, p.Injected, p.Delivered, p.SeqDrops,
			p.ARPFiltered, p.Amplification, p.BridgeConns, p.EndpointConns,
			p.Evictions, p.AttackerRx)
		if w, ok := want[key]; !ok {
			t.Errorf("unexpected cell %v", key)
		} else if p.Outcome != w {
			t.Errorf("%v: outcome %q, want %q", key, p.Outcome, w)
		}
		// The defenses must leave evidence, not just a verdict.
		switch {
		case p.Attack == "rst" && p.Topology == "failover" && p.SeqDrops == 0:
			t.Errorf("failover rst cell dropped nothing")
		case p.Attack == "arp" && p.ARPFiltered == 0:
			t.Errorf("arp/%s cell rejected no bindings", p.Topology)
		case p.Attack == "synflood" && p.Topology == "failover" && p.Evictions == 0:
			t.Errorf("failover synflood cell evicted nothing")
		}
	}
}
