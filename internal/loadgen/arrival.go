package loadgen

import (
	"math"
	"time"

	"tcpfailover/internal/fault"
)

// Poisson is a homogeneous Poisson process, independent exponential
// interarrivals at Rate events/second: the arrival process of every
// workload. The generator asks for the next arrival strictly after the
// current one, so the schedule is a pure function of the previous arrival
// and a private fault.Rand stream, byte-identical for a fixed seed
// regardless of bench worker count or shard partition.
type Poisson struct {
	Rate float64 // arrivals per second, must be positive
}

// Next returns the next arrival after now. The 1 ns floor keeps successive
// arrivals strictly ordered.
func (p Poisson) Next(now time.Duration, r *fault.Rand) time.Duration {
	d := time.Duration(-math.Log(1-r.Float64()) / p.Rate * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond
	}
	return now + d
}
