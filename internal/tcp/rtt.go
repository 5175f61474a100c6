package tcp

import "time"

// rttEstimator implements the Jacobson/Karels smoothed RTT estimate and the
// retransmission timeout derived from it (RFC 6298 constants). It lives in
// Conn by value; the RTO's floor is minRTO and its ceiling maxRTO.
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration
}

// sample folds a new round-trip measurement into the estimate.
func (r *rttEstimator) sample(m time.Duration) {
	if m <= 0 {
		m = time.Microsecond
	}
	if r.srtt == 0 { // unseeded: a sample is at least 1 µs, and so is every average of them
		r.srtt = m
		r.rttvar = m / 2
	} else {
		d := r.srtt - m
		if d < 0 {
			d = -d
		}
		r.rttvar = (3*r.rttvar + d) / 4
		r.srtt = (7*r.srtt + m) / 8
	}
	r.rto = min(max(r.srtt+max(4*r.rttvar, time.Millisecond), minRTO), maxRTO)
}

// backoff doubles the RTO after a retransmission timeout (Karn).
func (r *rttEstimator) backoff() {
	r.rto = min(max(2*r.rto, minRTO), maxRTO)
}

// RTO returns the current retransmission timeout.
func (r *rttEstimator) RTO() time.Duration { return r.rto }
