// Package obs is the observability core, three lines of one pipeline: a
// zero-allocation metrics registry with its sampler and exporters; a
// bounded flight recorder with standard pcap output (and, through
// internal/trace, text); and per-connection lifecycle spans, scored by
// Stall into the repo's one failover phase breakdown. Everything in this
// package is deterministic — values are functions of the simulation only,
// never of wall-clock time — so snapshots, captures and breakdowns are
// byte-identical across runs at the same seed.
//
// The metrics discipline matches the hot-path rules of internal/sim and
// internal/netbuf: all lookup work (name resolution, slot allocation,
// bucket layout) happens once at attach time; the steady-state path is an
// index-addressed add through a pre-resolved handle — no map access, no
// interface dispatch, no allocation. Handles obtained from a nil
// *Registry write into private discard slots, so instrumented components
// never branch on "is anyone listening".
package obs

import (
	"fmt"
	"io"
	"strings"
)

// Kind discriminates metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one preallocated slot. Counter and gauge use value; histograms
// use bounds/counts/sum. The slot is addressed by its registration index;
// handles hold the pointer so steady-state updates are a single store.
type metric struct {
	name   string
	kind   Kind
	index  int
	value  int64
	bounds []int64 // histogram upper bounds, ascending (inclusive)
	counts []int64 // len(bounds)+1; the last bucket is +Inf
	sum    int64
}

// Counter is a monotonically increasing handle. The zero Counter is not
// usable; obtain one from Registry.Counter (a nil registry works too).
type Counter struct{ m *metric }

// Inc adds one.
func (c Counter) Inc() { c.m.value++ }

// Add adds n (n must be >= 0 for the series to stay monotone).
func (c Counter) Add(n int64) { c.m.value += n }

// Value reads the current count.
func (c Counter) Value() int64 { return c.m.value }

// Gauge is a set/adjust handle for instantaneous values (queue depths).
type Gauge struct{ m *metric }

// Set stores v.
func (g Gauge) Set(v int64) { g.m.value = v }

// Add adjusts by d (may be negative).
func (g Gauge) Add(d int64) { g.m.value += d }

// Value reads the current level.
func (g Gauge) Value() int64 { return g.m.value }

// Histogram is a fixed-bucket observation handle. Bucket bounds are fixed
// at attach time; Observe is a linear scan over a handful of bounds plus
// two adds — no allocation, no sorting.
type Histogram struct{ m *metric }

// Observe records one sample.
func (h Histogram) Observe(v int64) {
	m := h.m
	i := 0
	for ; i < len(m.bounds); i++ {
		if v <= m.bounds[i] {
			break
		}
	}
	if len(m.counts) > 0 {
		m.counts[i]++
	}
	m.sum += v
}

// Count returns the total number of observations.
func (h Histogram) Count() int64 {
	var n int64
	for _, c := range h.m.counts {
		n += c
	}
	return n
}

// Sum returns the sum of all observed values.
func (h Histogram) Sum() int64 { return h.m.sum }

// Registry owns the metric slots of one simulation. It is not safe for
// concurrent use — like the scheduler it belongs to one single-threaded
// simulation; parallel benchmark workers each build their own.
type Registry struct {
	byName  map[string]*metric // attach-time resolution only
	metrics []*metric          // registration (and export) order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// resolve returns the slot for name, creating it on first attach. Series
// names follow Prometheus conventions and may carry a label suffix, e.g.
// `tcp_retransmissions_total{host="primary"}`; the whole string keys the
// slot. Re-attaching an existing name returns the same slot (kind must
// match), so two components may share a series.
func (r *Registry) resolve(name string, kind Kind, bounds []int64) *metric {
	if r == nil {
		// Discard slot: private to the handle, so concurrent simulations
		// with detached components never share state.
		return &metric{name: name, kind: kind, index: -1,
			bounds: bounds, counts: make([]int64, len(bounds)+1)}
	}
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, kind: kind, index: len(r.metrics),
		bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.byName[name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter attaches (or re-attaches) a counter series.
func (r *Registry) Counter(name string) Counter {
	return Counter{m: r.resolve(name, KindCounter, nil)}
}

// Gauge attaches (or re-attaches) a gauge series.
func (r *Registry) Gauge(name string) Gauge {
	return Gauge{m: r.resolve(name, KindGauge, nil)}
}

// Histogram attaches a histogram with the given ascending upper bounds
// (an implicit +Inf bucket is appended). Bounds are fixed for the life of
// the series; re-attaching ignores the new bounds.
func (r *Registry) Histogram(name string, bounds []int64) Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return Histogram{m: r.resolve(name, KindHistogram, b)}
}

// HostSeries appends a host label to a metric name when the host is known.
func HostSeries(name, host string) string {
	if host == "" {
		return name
	}
	return fmt.Sprintf("%s{host=%q}", name, host)
}

// Sample is one exported series in a Snapshot.
type Sample struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Value  int64   `json:"value,omitempty"`            // counter/gauge
	Sum    int64   `json:"sum,omitempty"`              // histogram
	Count  int64   `json:"count,omitempty"`            // histogram
	Bounds []int64 `json:"bucket_bounds_ns,omitempty"` // histogram
	Counts []int64 `json:"bucket_counts,omitempty"`    // histogram
}

// Snapshot copies every series in registration order (which is itself
// deterministic: attach order is a function of scenario construction).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.metrics))
	for _, m := range r.metrics {
		s := Sample{Name: m.name, Kind: m.kind.String()}
		switch m.kind {
		case KindHistogram:
			s.Sum = m.sum
			s.Bounds = m.bounds
			s.Counts = m.counts
			for _, c := range m.counts {
				s.Count += c
			}
		default:
			s.Value = m.value
		}
		out = append(out, s)
	}
	return out
}

func jsonInts(vs []int64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(']')
	return b.String()
}

// splitSeries separates a full series name into its base name and label
// block: `x_total{host="p"}` -> ("x_total", `host="p"`).
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// DumpText writes the registry in the Prometheus text exposition format
// (version 0.0.4): one # TYPE line per base metric name, then the series.
// Histograms expand into cumulative _bucket series with le labels plus
// _sum and _count. Series keep registration order; TYPE lines appear
// before the first series of each base name.
func (r *Registry) DumpText(w io.Writer) error {
	if r == nil {
		return nil
	}
	typed := make(map[string]bool)
	for _, m := range r.metrics {
		base, labels := splitSeries(m.name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.kind); err != nil {
				return err
			}
		}
		switch m.kind {
		case KindHistogram:
			var cum int64
			for i, c := range m.counts {
				cum += c
				le := "+Inf"
				if i < len(m.bounds) {
					le = fmt.Sprintf("%d", m.bounds[i])
				}
				ls := fmt.Sprintf(`le="%s"`, le)
				if labels != "" {
					ls = labels + "," + ls
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, ls, cum); err != nil {
					return err
				}
			}
			suffix := ""
			if labels != "" {
				suffix = "{" + labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				base, suffix, m.sum, base, suffix, cum); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lookup returns the current value of a counter or gauge series, or false
// when the series does not exist (tests and report code use this; the hot
// path never does).
func (r *Registry) Lookup(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	m, ok := r.byName[name]
	if !ok || m.kind == KindHistogram {
		return 0, ok
	}
	return m.value, true
}
