package bench

import (
	"fmt"
	"io"
	"time"

	"tcpfailover"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/loadgen"
	"tcpfailover/internal/metrics"
)

// --- E12 (extension): SLO under open-loop production traffic --------------------

// The paper's evaluation drives one connection at a time. E12 asks the
// question an operator would: with production-shaped traffic arriving
// open-loop — sessions keep coming whether or not the service answers — what
// goodput and client-visible tail latency does each system deliver, and what
// happens to the tail when the primary crashes mid-storm? Standard TCP with
// a crashed server turns every arrival into a failure; the failover pair
// turns the crash into a latency bulge whose size is the detection timeout.

// DefaultSLOLoads is the offered-load axis in sessions/second. The web
// workload moves ~45 KB per session, so the LAN (12.5 MB/s) saturates near
// 270 sessions/s: the axis spans light load, heavy load, and past-saturation.
var DefaultSLOLoads = []float64{40, 160, 320}

// DefaultSLOWindow is the measurement window of virtual time per cell.
const DefaultSLOWindow = 8 * time.Second

// sloWarmup is virtual time before the measurement window: arrivals run but
// are not measured, so the window sees a steady-state connection population.
const sloWarmup = time.Second

// sloDrain is virtual time after arrivals stop, letting in-flight requests
// finish (or fail) before the cell is scored.
const sloDrain = 2 * time.Second

// SLOPoint is one (mode, offered load, crash) cell of E12.
type SLOPoint struct {
	Mode     Mode    `json:"mode"`
	Workload string  `json:"workload"`
	Load     float64 `json:"offered_sessions_per_sec"`
	Crash    bool    `json:"crash"`

	// Arrivals and DialErrors cover the whole run; the request counters
	// cover requests issued inside the measurement window.
	Arrivals    int64 `json:"arrivals"`
	DialErrors  int64 `json:"dial_errors"`
	Requests    int64 `json:"requests"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Outstanding int64 `json:"outstanding"`

	// GoodputKBps is verified body bytes delivered for measured requests,
	// over the measurement window.
	GoodputKBps float64 `json:"goodput_kbps"`

	// Client-visible request latency percentiles (issue to last body byte;
	// a session's first request includes connection setup). Completed
	// requests only — refusals and dead connections are counted above, not
	// folded into the latency distribution.
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
}

// SLO runs the open-loop web workload: modes x loads x {no-crash, crash},
// each cell an independent simulation. In crash cells the primary fail-stops
// at the middle of the measurement window. Results are functions of the
// seeds only — byte-identical for any bench worker count.
func SLO(loads []float64, window time.Duration) ([]SLOPoint, error) {
	type cell struct {
		mode  Mode
		load  float64
		crash bool
	}
	cells := make([]cell, 0, 4*len(loads))
	for _, mode := range []Mode{Standard, Failover} {
		for _, load := range loads {
			for _, crash := range []bool{false, true} {
				cells = append(cells, cell{mode, load, crash})
			}
		}
	}

	stop := sloWarmup + window
	horizon := stop + sloDrain
	crashAt := sloWarmup + window/2

	out := make([]SLOPoint, len(cells))
	err := parallelEach(len(cells), func(j int) error {
		c := cells[j]
		seed := int64(12000 + j)
		sc, err := testbed(c.mode, seed, func(o *tcpfailover.Options) {
			if c.crash {
				o.Faults = &fault.Plan{
					Schedule: []fault.Step{{At: crashAt, Op: fault.OpCrashPrimary}},
				}
			}
		}, httpServer)
		if err != nil {
			return err
		}
		sc.Start()

		spec, err := loadgen.Zoo(webWorkload, c.load)
		if err != nil {
			return err
		}
		gen := loadgen.New(loadgen.Config{
			Sched:       sc.Sched,
			Stack:       sc.Client.TCP(),
			Addr:        sc.ServiceAddr(),
			Port:        benchPort,
			Spec:        spec,
			Rand:        fault.NewRand(uint64(seed)),
			Stop:        stop,
			MeasureFrom: sloWarmup,
		})
		gen.Start(0)
		if err := sc.Sched.RunUntil(horizon); err != nil {
			return fmt.Errorf("slo %s load %g crash=%v: %w", c.mode, c.load, c.crash, err)
		}

		st := &gen.Stats
		out[j] = SLOPoint{
			Mode:        c.mode,
			Workload:    webWorkload,
			Load:        c.load,
			Crash:       c.crash,
			Arrivals:    st.Arrivals,
			DialErrors:  st.DialErrors,
			Requests:    st.Requests,
			Completed:   st.Completed,
			Failed:      st.Failed,
			Outstanding: st.Outstanding(),
			GoodputKBps: metrics.RateKBps(st.BytesIn, window),
			P50:         st.Lat.Percentile(50),
			P99:         st.Lat.Percentile(99),
			P999:        st.Lat.Percentile(99.9),
			Max:         st.Lat.Percentile(100),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func renderSLO(w io.Writer, r *Results) {
	fmt.Fprintln(w, "=== E12 (extension): SLO under open-loop production traffic ===")
	fmt.Fprintln(w, "(workload-zoo sessions arrive open-loop — they do not wait for the")
	fmt.Fprintln(w, " service — at the offered rate; goodput and client-visible request")
	fmt.Fprintln(w, " latency per cell; in crash cells the primary fail-stops at the")
	fmt.Fprintln(w, " middle of the measurement window)")
	fmt.Fprintf(w, "%13s %6s %6s %8s %8s %7s %7s %12s %10s %10s %10s\n",
		"mode", "load/s", "crash", "requests", "complete", "failed", "refuse",
		"goodput KB/s", "p50", "p99", "p99.9")
	points := r.SLO
	for i, p := range points {
		if i > 0 && p.Mode != points[i-1].Mode {
			fmt.Fprintln(w)
		}
		crash := "-"
		if p.Crash {
			crash = "crash"
		}
		fmt.Fprintf(w, "%13s %6g %6s %8d %8d %7d %7d %12.1f %10v %10v %10v\n",
			p.Mode, p.Load, crash, p.Requests, p.Completed, p.Failed, p.DialErrors,
			p.GoodputKBps, p.P50.Round(time.Microsecond),
			p.P99.Round(time.Microsecond), p.P999.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}
