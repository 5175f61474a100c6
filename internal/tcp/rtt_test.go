package tcp

import (
	"testing"
	"time"
)

func TestRTTFirstSampleSeedsEstimate(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	if r.RTO() != time.Second {
		t.Errorf("initial RTO = %v", r.RTO())
	}
	r.sample(100 * time.Millisecond)
	if r.srtt != 100*time.Millisecond {
		t.Errorf("SRTT = %v, want the first sample", r.srtt)
	}
	// RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
	if r.RTO() != 300*time.Millisecond {
		t.Errorf("RTO = %v, want 300ms", r.RTO())
	}
}

func TestRTTSmoothingConverges(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	for range 100 {
		r.sample(time.Second)
	}
	if d := r.srtt - time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("SRTT = %v, want ~1s", r.srtt)
	}
	if r.RTO() > 1010*time.Millisecond {
		t.Errorf("RTO = %v, want tight around a steady RTT", r.RTO())
	}
}

func TestRTTBackoffDoublesAndClamps(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	for range 10 {
		r.backoff()
	}
	if r.RTO() != maxRTO {
		t.Errorf("RTO = %v, want clamped at max", r.RTO())
	}
}

func TestRTTMinClamp(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	r.sample(time.Microsecond)
	if r.RTO() != minRTO {
		t.Errorf("RTO = %v, want min clamp %v", r.RTO(), minRTO)
	}
}

func TestRTTNonPositiveSample(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	r.sample(0) // must not panic or produce zero estimates
	if r.srtt <= 0 {
		t.Errorf("SRTT = %v after zero sample", r.srtt)
	}
}
