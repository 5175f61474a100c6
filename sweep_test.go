package tcpfailover_test

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPropertyRandomizedSweep draws random (seed, crash point, role, loss)
// combinations and requires the exactly-once stream property for each. The
// combinations differ every run of the generator seed below but are fixed
// across CI runs — change sweepSeed to explore new corners.
func TestPropertyRandomizedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short mode")
	}
	const sweepSeed = 20260704
	rng := rand.New(rand.NewSource(sweepSeed))
	for i := range 16 {
		seed := rng.Int63n(1 << 30)
		frac := 0.05 + 0.9*rng.Float64()
		pos := rng.Intn(2)
		loss := 0.0
		if rng.Intn(2) == 1 {
			loss = 0.002 + 0.01*rng.Float64()
		}
		name := fmt.Sprintf("case%02d_seed%d_%s_at%.0f%%_loss%.3f", i, seed, memberNames[pos], frac*100, loss)
		t.Run(name, func(t *testing.T) {
			propertyRun(t, seed, frac, pos, loss)
		})
	}
}
