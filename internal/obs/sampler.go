package obs

import (
	"fmt"
	"io"
	"time"
)

// Sampler snapshots a metrics registry into columnar rings at a fixed
// sim-time period. The column set is frozen at construction from the
// registry's registration order (itself deterministic), so two samplers
// over equivalent registries produce identical column layouts; each Sample
// call is a straight copy of pre-resolved slots into flat int64 rings —
// no maps, no allocation in the steady state.
//
// Scheduling is the caller's job: obs cannot depend on internal/sim, so
// the simulation (bench harness, CLI) arms a periodic scheduler event that
// calls Sample(now). The ring holds the most recent Cap samples and wraps
// like the flight recorder, bounding memory for arbitrarily long runs.
type Sampler struct {
	period time.Duration
	cols   []samplerCol
	times  []int64 // sample sim times, ns; ring of capacity cap
	cap    int
	n      int // total samples taken (may exceed cap)
}

// samplerCol is one exported series: a pre-resolved metric slot plus its
// value ring. Histograms export two columns (count and sum).
type samplerCol struct {
	name string
	kind Kind
	m    *metric
	sum  bool // histogram sum column (else count for histograms)
	vals []int64
}

// NewSampler builds a sampler over reg with the given period and ring
// capacity (minimum 1). The column set is the registry's series at call
// time: counters and gauges one column each, histograms a ".count" and a
// ".sum" column.
func NewSampler(reg *Registry, period time.Duration, capacity int) *Sampler {
	if capacity < 1 {
		capacity = 1
	}
	s := &Sampler{period: period, cap: capacity, times: make([]int64, 0, capacity)}
	if reg == nil {
		return s
	}
	for _, m := range reg.metrics {
		switch m.kind {
		case KindHistogram:
			s.cols = append(s.cols,
				samplerCol{name: m.name + ".count", kind: m.kind, m: m, vals: make([]int64, 0, capacity)},
				samplerCol{name: m.name + ".sum", kind: m.kind, m: m, sum: true, vals: make([]int64, 0, capacity)})
		default:
			s.cols = append(s.cols,
				samplerCol{name: m.name, kind: m.kind, m: m, vals: make([]int64, 0, capacity)})
		}
	}
	return s
}

// Sample records one row at sim time now. Zero-allocation once the rings
// are full; before that, appends into pre-sized backing arrays.
func (s *Sampler) Sample(now time.Duration) {
	slot := s.n % s.cap
	if len(s.times) < s.cap {
		s.times = append(s.times, int64(now))
	} else {
		s.times[slot] = int64(now)
	}
	for i := range s.cols {
		c := &s.cols[i]
		var v int64
		switch {
		case c.kind != KindHistogram:
			v = c.m.value
		case c.sum:
			v = c.m.sum
		default:
			for _, n := range c.m.counts {
				v += n
			}
		}
		if len(c.vals) < s.cap {
			c.vals = append(c.vals, v)
		} else {
			c.vals[slot] = v
		}
	}
	s.n++
}

// Samples returns the number of rows currently retained.
func (s *Sampler) Samples() int {
	if s.n < s.cap {
		return s.n
	}
	return s.cap
}

// Timeseries is a sampler's contents in time order — the export and merge
// format. Times and every series' Values have equal length.
type Timeseries struct {
	PeriodNs int64
	TimesNs  []int64
	Series   []TimeseriesCol
}

// TimeseriesCol is one series column of a Timeseries.
type TimeseriesCol struct {
	Name   string
	Kind   string
	Values []int64
}

// Timeseries unrolls the ring into time order (oldest retained sample
// first).
func (s *Sampler) Timeseries() *Timeseries {
	n := s.Samples()
	ts := &Timeseries{PeriodNs: int64(s.period), TimesNs: make([]int64, n)}
	start := 0
	if s.n > s.cap {
		start = s.n % s.cap
	}
	for i := 0; i < n; i++ {
		ts.TimesNs[i] = s.times[(start+i)%s.cap]
	}
	for _, c := range s.cols {
		col := TimeseriesCol{Name: c.name, Kind: c.kind.String(), Values: make([]int64, n)}
		for i := 0; i < n; i++ {
			col.Values[i] = c.vals[(start+i)%s.cap]
		}
		ts.Series = append(ts.Series, col)
	}
	return ts
}

// MergeTimeseries folds per-cell timeseries into one fleet view: rows are
// aligned by timestamp (every cell samples on the same sim-time grid, so
// the time vectors must be identical) and series are united first-seen in
// input order with values summed — the same discipline as MergeSnapshots,
// so the result is independent of how cells were packed onto shards.
func MergeTimeseries(parts ...*Timeseries) (*Timeseries, error) {
	out := &Timeseries{}
	index := make(map[string]int)
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.TimesNs == nil {
			out.PeriodNs = p.PeriodNs
			out.TimesNs = append([]int64(nil), p.TimesNs...)
		} else if len(p.TimesNs) != len(out.TimesNs) {
			return nil, fmt.Errorf("obs: merging timeseries with %d rows into %d", len(p.TimesNs), len(out.TimesNs))
		} else {
			for i, t := range p.TimesNs {
				if t != out.TimesNs[i] {
					return nil, fmt.Errorf("obs: timeseries sample grids differ at row %d", i)
				}
			}
		}
		for _, col := range p.Series {
			j, ok := index[col.Name]
			if !ok {
				index[col.Name] = len(out.Series)
				out.Series = append(out.Series, TimeseriesCol{
					Name: col.Name, Kind: col.Kind,
					Values: append([]int64(nil), col.Values...),
				})
				continue
			}
			for i, v := range col.Values {
				out.Series[j].Values[i] += v
			}
		}
	}
	return out, nil
}

// WriteJSON emits the timeseries as a JSON object. The encoding is built by
// hand so the byte layout is stable across Go versions and can serve as a
// golden artifact.
func (ts *Timeseries) WriteJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\n  \"period_ns\": %d,\n  \"times_ns\": %s,\n  \"series\": [\n",
		ts.PeriodNs, jsonInts(ts.TimesNs)); err != nil {
		return err
	}
	for i, col := range ts.Series {
		sep := ","
		if i == len(ts.Series)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "    {\"name\": %q, \"kind\": %q, \"values\": %s}%s\n",
			col.Name, col.Kind, jsonInts(col.Values), sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "  ]\n}\n")
	return err
}
