package fault

import (
	"fmt"

	"tcpfailover/internal/ethernet"
	"tcpfailover/internal/obs"
)

// Stats counts faults an injector actually applied (as opposed to model
// parameters, which are probabilities).
type Stats struct {
	// Examined counts frames a chain judged.
	Examined int64
	// Dropped counts frames discarded (loss models and partitions).
	Dropped int64
	// Corrupted counts bit flips applied.
	Corrupted int64
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.Examined += o.Examined
	s.Dropped += o.Dropped
	s.Corrupted += o.Corrupted
}

// binding is one compiled Impairment: a model chain plus its directional
// constraints, resolved to NICs.
type binding struct {
	from, to *ethernet.NIC // nil = any station
	models   []Model
	// v is judge's scratch: a verdict handed to a Model through the
	// interface escapes, so a local one would cost a malloc per frame.
	v Verdict
}

// Injector attaches to one ethernet.Segment and implements its Impairer
// hook by running the compiled chains. Transmit-side chains (To: RoleAny)
// may drop and corrupt; receive-side chains run once per (receiver, frame)
// pair and may only drop.
type Injector struct {
	link  LinkID
	tx    []*binding
	rx    []*binding
	stats Stats

	// Observability handle (a discard slot until attachObs).
	mDropped obs.Counter
}

// newInjector creates an injector for the link and installs it on seg.
func newInjector(link LinkID, seg *ethernet.Segment) *Injector {
	inj := &Injector{link: link}
	inj.attachObs(nil)
	seg.SetImpairer(inj)
	return inj
}

// attachObs resolves the injector's per-link counters against reg.
func (inj *Injector) attachObs(reg *obs.Registry) {
	inj.mDropped = reg.Counter(fmt.Sprintf("fault_drops_total{link=%q}", inj.link))
}

// judge runs b's chain over the frame, stopping at the first model that
// drops it, and returns the verdict, which is valid until the next call.
func (b *binding) judge(payload []byte) *Verdict {
	v := &b.v
	*v = Verdict{FlipBits: v.FlipBits[:0]}
	for _, m := range b.models {
		m.Judge(payload, v)
		if v.Drop {
			break
		}
	}
	return v
}

// Tx implements ethernet.Impairer. It runs every transmit-side chain whose
// From matches the sender, applies corruption in place, and reports whether
// the frame is lost on the wire.
func (inj *Injector) Tx(src *ethernet.NIC, f ethernet.Frame) bool {
	for _, b := range inj.tx {
		if b.from != nil && b.from != src {
			continue
		}
		inj.stats.Examined++
		v := b.judge(f.Payload)
		if v.Drop {
			inj.stats.Dropped++
			inj.mDropped.Inc()
			return true
		}
		for _, bit := range v.FlipBits {
			f.Payload[bit/8] ^= 1 << (bit % 8)
			inj.stats.Corrupted++
		}
	}
	return false
}

// Rx implements ethernet.Impairer: it runs every receive-side chain whose
// To matches the receiver (and From, if set, the original sender) and
// reports whether this receiver loses the frame.
func (inj *Injector) Rx(dst *ethernet.NIC, f ethernet.Frame) bool {
	for _, b := range inj.rx {
		if b.to != dst {
			continue
		}
		if b.from != nil && b.from.MAC() != f.Src {
			continue
		}
		inj.stats.Examined++
		if b.judge(f.Payload).Drop {
			inj.stats.Dropped++
			inj.mDropped.Inc()
			return true
		}
	}
	return false
}
