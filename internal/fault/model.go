package fault

// Verdict accumulates the fate of one frame as it passes through a chain of
// models. Models fold their effects in; the injector applies the combined
// result to the Ethernet segment.
type Verdict struct {
	// Drop discards the frame.
	Drop bool
	// FlipBits lists payload bit offsets to invert (corruption). The
	// injector patches the payload in place before delivery.
	FlipBits []int
}

// Model is one impairment applied to frames crossing a link in one
// direction. Models are stateful (burst state, hit counts)
// and own a private PRNG stream, so a chain's behaviour is a function of
// the simulation seed and the frame sequence alone.
type Model interface {
	// Judge folds the model's effect on one frame into v. payload is the
	// frame payload (an IP datagram or ARP packet); models must not modify
	// it — corruption is requested via v.FlipBits and applied centrally.
	Judge(payload []byte, v *Verdict)
}

// --- loss ---------------------------------------------------------------

// bernoulli drops each frame independently with fixed probability.
type bernoulli struct {
	p   float64
	rng *Rand
}

func (m *bernoulli) Judge(_ []byte, v *Verdict) {
	if m.p > 0 && m.rng.Float64() < m.p {
		v.Drop = true
	}
}

// gilbertElliott is the classic two-state burst-loss channel: a good state
// with low loss and a bad state with high loss, with per-frame transition
// probabilities between them. Mean burst length is 1/badToGood frames.
type gilbertElliott struct {
	goodToBad, badToGood float64
	goodLoss, badLoss    float64
	bad                  bool
	rng                  *Rand
}

func (m *gilbertElliott) Judge(_ []byte, v *Verdict) {
	if m.bad {
		if m.rng.Float64() < m.badToGood {
			m.bad = false
		}
	} else if m.rng.Float64() < m.goodToBad {
		m.bad = true
	}
	loss := m.goodLoss
	if m.bad {
		loss = m.badLoss
	}
	if loss > 0 && m.rng.Float64() < loss {
		v.Drop = true
	}
}

// dropWhen drops frames matching a caller predicate, up to a limit. It is
// the programmable model the paper's section 4 loss cases use to lose one
// specific segment at one specific station.
type dropWhen struct {
	match func(payload []byte) bool
	times int // 0 = unlimited
	hits  int
}

func (m *dropWhen) Judge(payload []byte, v *Verdict) {
	if m.times > 0 && m.hits >= m.times {
		return
	}
	if m.match == nil || m.match(payload) {
		m.hits++
		v.Drop = true
	}
}

// --- content ------------------------------------------------------------

// corrupt flips one random payload bit in a random subset of frames. The
// flip models corruption that slipped past the Ethernet CRC, so the IPv4
// and TCP checksums are the last line of defense — exactly the property
// the corruption tests pin down.
type corrupt struct {
	p   float64
	rng *Rand
}

func (m *corrupt) Judge(payload []byte, v *Verdict) {
	if len(payload) == 0 || m.p <= 0 || m.rng.Float64() >= m.p {
		return
	}
	v.FlipBits = append(v.FlipBits, m.rng.Intn(len(payload)*8))
}

// --- partitions ---------------------------------------------------------

// Partition is a named on/off gate: while active, every frame in the
// bound direction is dropped. The failure schedule toggles partitions by
// name (OpPartition / OpHeal), and tests may toggle them directly.
type Partition struct {
	name   string
	active bool
}

// Judge drops the frame while the partition is active.
func (m *Partition) Judge(_ []byte, v *Verdict) {
	if m.active {
		v.Drop = true
	}
}

// SetActive engages or heals the partition.
func (m *Partition) SetActive(on bool) { m.active = on }
