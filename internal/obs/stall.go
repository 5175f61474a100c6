package obs

import "time"

// StallBreakdown is one connection's client-visible failover stall,
// attributed per phase against the fleet marks. It is the repo's one
// failover phase model: E7 reads it for each crash run's one connection,
// E14 and the benchmark's traced run for every connection of a fleet.
//
// The stall runs from Anchor (the last delivery before the takeover, which
// only the primary can have served; or connection establishment for flows
// that never got a byte through, or SYN for flows caught mid-handshake) to
// the first payload delivery after the takeover. The
// phase fields tile that interval exactly: PreCrash + Detection + Announce
// + Resume + Recovery == Total.
type StallBreakdown struct {
	Anchor time.Duration `json:"anchor_ns"` // where the stall is measured from
	Total  time.Duration `json:"total_ns"`  // anchor -> first post-recovery delivery

	PreCrash  time.Duration `json:"precrash_ns"`  // anchor -> failure injection
	Detection time.Duration `json:"detection_ns"` // failure injection -> detector fired
	Announce  time.Duration `json:"announce_ns"`  // detector fired -> takeover done (ARP announce)
	Resume    time.Duration `json:"resume_ns"`    // takeover -> first segment reaching the client
	Recovery  time.Duration `json:"recovery_ns"`  // first post-takeover segment -> first delivery
}

// Stall computes sp's client-visible stall against the recorder's fleet
// marks. It returns false when the span records no completed stall: the
// connection never recovered (no post-takeover delivery), was established
// only after takeover, or the fleet marks are incomplete.
func (r *SpanRecorder) Stall(sp *Span) (StallBreakdown, bool) {
	if r == nil || !r.haveFailure || !r.haveDetect || !r.haveTakeover {
		return StallBreakdown{}, false
	}
	if !sp.Has(SpanFirstRecovery) {
		return StallBreakdown{}, false
	}
	anchor, ok := sp.Time(SpanLastProgress)
	if !ok {
		if anchor, ok = sp.Time(SpanEstablished); !ok {
			if anchor, ok = sp.Time(SpanSynSent); !ok {
				return StallBreakdown{}, false
			}
		}
	}
	if anchor >= r.takeoverAt {
		// The flow only became active after the takeover completed; it
		// never experienced the outage.
		return StallBreakdown{}, false
	}
	end := sp.Times[SpanFirstRecovery]
	if end < anchor {
		return StallBreakdown{}, false
	}
	resumeEnd := end
	if t, ok := sp.Time(SpanFirstAfterTakeover); ok {
		resumeEnd = t
	}
	// Clamp the phase boundaries into [anchor, end] and force them
	// monotone, so the phase durations are non-negative and tile the
	// stall exactly even when a boundary lands outside the interval.
	clamp := func(t, lo time.Duration) time.Duration {
		if t < lo {
			t = lo
		}
		if t > end {
			t = end
		}
		return t
	}
	b1 := clamp(r.failureAt, anchor) // end of pre-crash
	b2 := clamp(r.detectAt, b1)      // end of detection
	b3 := clamp(r.takeoverAt, b2)    // end of announce
	b4 := clamp(resumeEnd, b3)       // end of resume
	return StallBreakdown{
		Anchor:    anchor,
		Total:     end - anchor,
		PreCrash:  b1 - anchor,
		Detection: b2 - b1,
		Announce:  b3 - b2,
		Resume:    b4 - b3,
		Recovery:  end - b4,
	}, true
}
