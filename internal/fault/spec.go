package fault

import "fmt"

// Kind discriminates impairment model specifications.
type Kind string

// Model kinds.
const (
	KindBernoulli      Kind = "bernoulli"
	KindGilbertElliott Kind = "gilbert-elliott"
	KindDropWhen       Kind = "drop-when"
	KindCorrupt        Kind = "corrupt"
	KindPartition      Kind = "partition"
)

// Spec is the declarative description of one impairment model. Use the
// constructor helpers (Bernoulli, GilbertElliott, …) rather than filling
// fields by hand; Build interprets only the fields its Kind uses.
type Spec struct {
	Kind Kind

	// Rate is the per-frame probability for Bernoulli loss and corruption.
	Rate float64

	// Gilbert–Elliott channel parameters.
	GoodToBad, BadToGood float64
	GoodLoss, BadLoss    float64

	// Name identifies a partition to the failure schedule; Active is its
	// initial state.
	Name   string
	Active bool

	// Match and Times parameterize KindDropWhen: drop frames whose payload
	// satisfies Match (nil matches everything), at most Times times
	// (0 = unlimited).
	Match func(payload []byte) bool
	Times int
}

// Bernoulli drops each frame independently with probability rate.
func Bernoulli(rate float64) Spec { return Spec{Kind: KindBernoulli, Rate: rate} }

// GilbertElliott is bursty loss: a two-state channel with the given
// per-frame transition probabilities and per-state loss rates.
func GilbertElliott(goodToBad, badToGood, goodLoss, badLoss float64) Spec {
	return Spec{Kind: KindGilbertElliott,
		GoodToBad: goodToBad, BadToGood: badToGood, GoodLoss: goodLoss, BadLoss: badLoss}
}

// BurstyLoss derives a Gilbert–Elliott spec from a target average loss
// rate, with bursts of ~10 frames (goodToBad 0.01, badToGood 0.1) and a
// lossless good state. The bad-state loss is capped at 1.
func BurstyLoss(avgRate float64) Spec {
	const goodToBad, badToGood = 0.01, 0.1
	badShare := goodToBad / (goodToBad + badToGood) // stationary P(bad)
	badLoss := avgRate / badShare
	if badLoss > 1 {
		badLoss = 1
	}
	return GilbertElliott(goodToBad, badToGood, 0, badLoss)
}

// DropWhen drops frames whose payload satisfies match, at most times times
// (0 = unlimited). The targeted loss cases of the paper's section 4 are
// built from this.
func DropWhen(match func(payload []byte) bool, times int) Spec {
	return Spec{Kind: KindDropWhen, Match: match, Times: times}
}

// Corrupt flips one random bit in a fraction rate of frames.
func Corrupt(rate float64) Spec { return Spec{Kind: KindCorrupt, Rate: rate} }

// PartitionGate is a named directional partition, initially healed unless
// active; the failure schedule toggles it with OpPartition / OpHeal.
func PartitionGate(name string, active bool) Spec {
	return Spec{Kind: KindPartition, Name: name, Active: active}
}

// build instantiates the model. rng is the model's private stream; the
// returned partition (if any) must be registered for schedule lookup.
func (s Spec) build(rng *Rand) (Model, error) {
	switch s.Kind {
	case KindBernoulli:
		return &bernoulli{p: s.Rate, rng: rng}, nil
	case KindGilbertElliott:
		return &gilbertElliott{goodToBad: s.GoodToBad, badToGood: s.BadToGood,
			goodLoss: s.GoodLoss, badLoss: s.BadLoss, rng: rng}, nil
	case KindDropWhen:
		return &dropWhen{match: s.Match, times: s.Times}, nil
	case KindCorrupt:
		return &corrupt{p: s.Rate, rng: rng}, nil
	case KindPartition:
		if s.Name == "" {
			return nil, fmt.Errorf("fault: partition needs a name")
		}
		return &Partition{name: s.Name, active: s.Active}, nil
	default:
		return nil, fmt.Errorf("fault: unknown model kind %q", s.Kind)
	}
}
