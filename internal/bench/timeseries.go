package bench

import (
	"time"

	"tcpfailover/internal/obs"
)

// DefaultTimeseriesPeriod is the sampling period behind
// failover-bench -timeseries-out.
const DefaultTimeseriesPeriod = 100 * time.Millisecond

// CollectTimeseries runs a two-cell sharded scenario under open-loop web
// traffic, crashes every primary mid-window, and samples each cell's
// metrics registry on a fixed sim-time grid — the workload behind
// failover-bench -timeseries-out. The per-cell columnar rings are merged
// into one fleet timeseries (values summed, grids aligned), so the output
// is a function of the seeds only: byte-identical for any worker or shard
// count. shards <= 0 selects min(cells, Workers).
func CollectTimeseries(period time.Duration, shards int) (*obs.Timeseries, error) {
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
	ss, err := webCrashFleet(43434, cells, shards, load, warmup, window)
	if err != nil {
		return nil, err
	}
	// Every cell samples on the same sim-time grid (a merge requirement),
	// armed as ordinary scheduler events: obs cannot depend on sim, so
	// the simulation drives the sampler, not the other way around.
	rows := int(horizon / period)
	samplers := make([]*obs.Sampler, len(ss.Cells))
	for i, cell := range ss.Cells {
		cell.Stream.Use()
		s := obs.NewSampler(cell.Obs, period, rows)
		samplers[i] = s
		for k := 1; k <= rows; k++ {
			t := time.Duration(k) * period
			if t >= horizon {
				break
			}
			cell.Sched.AtArg(t, "obs.sample", func(arg any) {
				s.Sample(arg.(time.Duration))
			}, t)
		}
	}
	if err := ss.RunUntil(horizon); err != nil {
		return nil, err
	}
	parts := make([]*obs.Timeseries, len(samplers))
	for i, s := range samplers {
		parts[i] = s.Timeseries()
	}
	return obs.MergeTimeseries(parts...)
}
