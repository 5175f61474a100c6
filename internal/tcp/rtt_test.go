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
	r.sample(100*time.Millisecond, time.Minute)
	if r.SRTT() != 100*time.Millisecond {
		t.Errorf("SRTT = %v, want the first sample", r.SRTT())
	}
	// RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
	if r.RTO() != 300*time.Millisecond {
		t.Errorf("RTO = %v, want 300ms", r.RTO())
	}
}

func TestRTTSmoothingConverges(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	for range 100 {
		r.sample(time.Second, time.Minute)
	}
	if d := r.SRTT() - time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("SRTT = %v, want ~1s", r.SRTT())
	}
	if r.RTO() > 1010*time.Millisecond {
		t.Errorf("RTO = %v, want tight around a steady RTT", r.RTO())
	}
}

func TestRTTBackoffDoublesAndClamps(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	for range 10 {
		r.backoff(8 * time.Second)
	}
	if r.RTO() != 8*time.Second {
		t.Errorf("RTO = %v, want clamped at max", r.RTO())
	}
}

func TestRTTMinClamp(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	r.sample(time.Microsecond, time.Minute)
	if r.RTO() != minRTO {
		t.Errorf("RTO = %v, want min clamp %v", r.RTO(), minRTO)
	}
}

func TestRTTNonPositiveSample(t *testing.T) {
	r := rttEstimator{rto: time.Second}
	r.sample(0, time.Minute) // must not panic or produce zero estimates
	if r.SRTT() <= 0 {
		t.Errorf("SRTT = %v after zero sample", r.SRTT())
	}
}
