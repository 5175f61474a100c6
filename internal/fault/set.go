package fault

import (
	"fmt"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/obs"
)

// Topology maps the plan's symbolic names onto the assembled network: the
// segments impairments can bind to, and per link, the NIC each role
// transmits and receives on (a router has one NIC per link it joins). The
// scenario builder fills this in; tests with bespoke topologies can too.
type Topology struct {
	Links    map[LinkID]*ethernet.Segment
	Stations map[LinkID]map[Role]*ethernet.NIC
}

// Set is the live fault state of one simulation: the per-link injectors,
// the named partitions, and the seed-derived randomness impairments are
// compiled against. A Set accepts impairments both at build time (from
// Options.Faults) and mid-run (tests arming a targeted loss after
// warm-up); either way every model's random stream derives only from the
// simulation seed and the order of Impair calls, which is itself
// deterministic.
type Set struct {
	rng        *Rand
	topo       Topology
	injectors  map[LinkID]*Injector
	partitions map[string]*Partition
	nextChain  int

	// reg, when set, labels and resolves per-link injector counters;
	// injectors created later attach themselves on creation.
	reg *obs.Registry
}

// NewSet creates an empty fault set for the topology. seed must be the
// simulation seed, so that fault randomness is reproducible alongside
// everything else.
func NewSet(seed int64, topo Topology) *Set {
	return &Set{
		rng:        NewRand(mix(uint64(seed))).Split("fault"),
		topo:       topo,
		injectors:  make(map[LinkID]*Injector),
		partitions: make(map[string]*Partition),
	}
}

// AttachObs resolves per-link fault counters (drops) against reg
// for every existing injector, and for injectors created afterwards.
func (s *Set) AttachObs(reg *obs.Registry) {
	s.reg = reg
	for _, inj := range s.injectors {
		inj.attachObs(reg)
	}
}

// injector returns (creating on demand) the injector for link.
func (s *Set) injector(link LinkID) (*Injector, error) {
	if inj, ok := s.injectors[link]; ok {
		return inj, nil
	}
	seg, ok := s.topo.Links[link]
	if !ok || seg == nil {
		return nil, fmt.Errorf("fault: no such link %q in this topology", link)
	}
	inj := newInjector(link, seg)
	if s.reg != nil {
		inj.attachObs(s.reg)
	}
	s.injectors[link] = inj
	return inj, nil
}

// nic resolves a role to its NIC on the given link; RoleAny resolves to
// nil (any station).
func (s *Set) nic(link LinkID, r Role) (*ethernet.NIC, error) {
	if r == RoleAny {
		return nil, nil
	}
	nic, ok := s.topo.Stations[link][r]
	if !ok || nic == nil {
		return nil, fmt.Errorf("fault: role %q is not attached to link %q", r, link)
	}
	return nic, nil
}

// Impair compiles one impairment and installs it, effective immediately.
// Each model in the chain gets a private random stream derived from the
// simulation seed, the link, and the chain position.
func (s *Set) Impair(imp Impairment) error {
	if err := imp.validate(); err != nil {
		return err
	}
	inj, err := s.injector(imp.Link)
	if err != nil {
		return err
	}
	from, err := s.nic(imp.Link, imp.From)
	if err != nil {
		return err
	}
	to, err := s.nic(imp.Link, imp.To)
	if err != nil {
		return err
	}
	chainRng := s.rng.Split(fmt.Sprintf("%s/%d", imp.Link, s.nextChain))
	s.nextChain++
	b := &binding{from: from, to: to}
	for i, spec := range imp.Models {
		m, err := spec.build(chainRng.Split(fmt.Sprintf("%d/%s", i, spec.Kind)))
		if err != nil {
			return err
		}
		if p, ok := m.(*Partition); ok {
			if _, dup := s.partitions[p.name]; dup {
				return fmt.Errorf("fault: duplicate partition name %q", p.name)
			}
			s.partitions[p.name] = p
		}
		b.models = append(b.models, m)
	}
	if to != nil {
		inj.rx = append(inj.rx, b)
	} else {
		inj.tx = append(inj.tx, b)
	}
	return nil
}

// Apply installs every impairment of the plan.
func (s *Set) Apply(imps []Impairment) error {
	for i, imp := range imps {
		if err := s.Impair(imp); err != nil {
			return fmt.Errorf("impairment %d: %w", i, err)
		}
	}
	return nil
}

// Partition engages the named partition.
func (s *Set) Partition(name string) error { return s.setPartition(name, true) }

// Heal disengages the named partition.
func (s *Set) Heal(name string) error { return s.setPartition(name, false) }

func (s *Set) setPartition(name string, on bool) error {
	p, ok := s.partitions[name]
	if !ok {
		return fmt.Errorf("fault: no partition named %q", name)
	}
	p.SetActive(on)
	return nil
}

// HasPartition reports whether a partition with the name exists; the
// scenario uses it to validate schedules at build time.
func (s *Set) HasPartition(name string) bool {
	_, ok := s.partitions[name]
	return ok
}

// Stats aggregates the counters of every link's injector.
func (s *Set) Stats() Stats {
	var out Stats
	for _, inj := range s.injectors {
		out.add(inj.stats)
	}
	return out
}
