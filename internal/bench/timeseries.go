package bench

import (
	"time"

	"tcpfailover/internal/obs"
)

// DefaultTimeseriesPeriod is the sampling period behind
// failover-bench -timeseries-out.
const DefaultTimeseriesPeriod = 100 * time.Millisecond

// CollectTimeseries runs two testbed cells under open-loop web traffic,
// crashes every primary mid-window, and samples each cell's metrics
// registry on a fixed sim-time grid — the workload behind
// failover-bench -timeseries-out. The per-cell columnar rings are merged
// into one fleet timeseries (values summed, grids aligned), so the output
// is a function of the seeds only: byte-identical for any worker count.
func CollectTimeseries(period time.Duration) (*obs.Timeseries, error) {
	if period <= 0 {
		period = DefaultTimeseriesPeriod
	}
	const (
		cells  = 2
		load   = 50.0 // sessions/s/cell
		warmup = 500 * time.Millisecond
		window = 3 * time.Second
		drain  = time.Second
	)
	horizon := warmup + window + drain
	fleet, err := webCrashFleet(43434, cells, load, warmup, window)
	if err != nil {
		return nil, err
	}
	// Every cell samples on the same sim-time grid (a merge requirement),
	// armed as ordinary scheduler events: obs cannot depend on sim, so
	// the simulation drives the sampler, not the other way around.
	rows := int(horizon / period)
	samplers := make([]*obs.Sampler, len(fleet))
	for i, sc := range fleet {
		s := obs.NewSampler(sc.Obs, period, rows)
		samplers[i] = s
		for k := 1; k <= rows; k++ {
			t := time.Duration(k) * period
			if t >= horizon {
				break
			}
			sc.Sched.AtArg(t, "obs.sample", func(arg any) {
				s.Sample(arg.(time.Duration))
			}, t)
		}
	}
	if err := runFleet(fleet, horizon); err != nil {
		return nil, err
	}
	parts := make([]*obs.Timeseries, len(samplers))
	for i, s := range samplers {
		parts[i] = s.Timeseries()
	}
	return obs.MergeTimeseries(parts...)
}
