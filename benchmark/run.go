package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// sliceRec is one timed quantum of the measured phase, bracketed by the
// reference kernel.
type sliceRec struct {
	wallNS    float64
	segments  float64
	refBefore refSample
	refAfter  refSample
	window    int // index of the window the slice belongs to
}

// norm is the slice's wall time rescaled to a quiet box.
func (s sliceRec) norm(mix float64) float64 {
	return s.wallNS / slowdown(s.refBefore, s.refAfter, mix)
}

// measurement is everything one measured phase produced.
type measurement struct {
	setupNorm []float64 // normalised seconds, one per set-up
	slices    []sliceRec
	windows   []windowResult
	heapBase  float64          // live heap before the first set-up: the runtime's and the benchmark's own
	heapMB    []float64        // live heap at the end of each pooled window, less heapBase
	refNS     []float64        // every reference sample taken
	mem0      runtime.MemStats // at the start of the first window
	mem1      runtime.MemStats // at the end of the first window
}

// measurer owns the reference kernel and runs set-ups and measured phases
// against it.
type measurer struct {
	ref  *refKernel
	last refSample // most recent reference sample
	m    *measurement
}

func newMeasurer() *measurer {
	r := &measurer{ref: newRefKernel(), m: &measurement{}}
	r.m.heapBase = liveHeapMB()
	return r
}

// liveHeapMB is HeapAlloc after two forced collections. The second one
// drops what sync.Pool (netbuf's free buffers) kept through the first as its
// victim cache: with one, the reading included those buffers or not
// depending on how recently the collector had last run by itself.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func (r *measurer) sample() refSample {
	r.last = r.ref.time()
	r.m.refNS = append(r.m.refNS, r.last.total())
	return r.last
}

// timedSetup runs one set-up bracketed by reference samples and returns its
// raw wall seconds.
func (r *measurer) timedSetup(w workload, seed int64, rep int, mode runMode, tr *tracer) (float64, error) {
	runtime.GC()
	before := r.sample()
	t0 := time.Now()
	if err := w.setup(seed, rep, mode, tr); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	wall := time.Since(t0).Seconds()
	after := r.sample()
	r.m.setupNorm = append(r.m.setupNorm, wall/slowdown(before, after, w.refMix()))
	return wall, nil
}

// Spare set-ups continue past phaseSpec.setups until they sum to
// setupFloorSeconds, up to setupsMax of them.
const (
	setupFloorSeconds = 0.5
	setupsMax         = 40
)

// phaseSpec says how long a measured phase runs.
type phaseSpec struct {
	setups     int           // set-ups to time before (and including) the live one
	minWindows int           // fixed windows that must complete
	budget     time.Duration // keep slicing until this much wall time has passed; 0 = fixed work only
	mode       runMode
	tr         *tracer
	onSlice    func(windowDone bool) // called between slices, outside the timed interval
}

// run times spec.setups set-ups, then slices the measured phase until
// spec.minWindows fixed windows have completed and the wall-clock budget is
// spent. Virtual results come from the first minWindows windows only, so
// they do not depend on how far the budget stretched.
func (r *measurer) run(w workload, seed int64, spec phaseSpec) (*measurement, error) {
	m := r.m
	// Spare set-ups use repetition numbers the measured windows never
	// reach, so each is a different input of the same shape. A set-up that
	// takes milliseconds is repeated further, until the set-ups add up to
	// something a timer can resolve against the box's noise.
	spent := 0.0
	for i := 1; i < spec.setups || (spec.setups > 1 && spent < setupFloorSeconds && i < setupsMax); i++ {
		wall, err := r.timedSetup(w, seed, 1000+i, spec.mode, nil)
		if err != nil {
			return nil, err
		}
		spent += wall
		w.teardown()
	}
	rep := 0
	if _, err := r.timedSetup(w, seed, rep, spec.mode, spec.tr); err != nil {
		return nil, err
	}
	spec.tr.enable(true)
	phase := time.Now()
	runtime.ReadMemStats(&m.mem0)
	for {
		before := r.last
		seg0 := w.segments()
		t0 := time.Now()
		done, err := w.slice()
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", len(m.windows), err)
		}
		after := r.sample()
		m.slices = append(m.slices, sliceRec{
			wallNS: float64(wall.Nanoseconds()), segments: float64(w.segments() - seg0),
			refBefore: before, refAfter: after, window: rep,
		})
		if spec.onSlice != nil {
			// The callback may run the scenario itself (quiescence); that
			// is not part of the measured phase.
			spec.tr.enable(!done)
			spec.onSlice(done)
			spec.tr.enable(true)
		}
		if done {
			res, err := w.window()
			if err != nil {
				return nil, err
			}
			m.windows = append(m.windows, res)
			if len(m.windows) == 1 {
				runtime.ReadMemStats(&m.mem1)
			}
			if len(m.windows) <= spec.minWindows {
				// All of the window's state is still live here.
				m.heapMB = append(m.heapMB, liveHeapMB()-m.heapBase)
				r.sample()
			}
		}
		enough := len(m.windows) >= spec.minWindows
		if enough && time.Since(phase) >= spec.budget {
			break
		}
		if done && w.rebuilds() {
			spec.tr.enable(false)
			w.teardown()
			rep++
			if _, err := r.timedSetup(w, seed, rep, spec.mode, spec.tr); err != nil {
				return nil, err
			}
			spec.tr.enable(true)
		}
	}
	return m, nil
}

// hostUnits returns the per-segment host cost, normalised and raw, of every
// unit the run value is a median over. Workloads that keep one scenario have
// one unit per slice. Rebuilt workloads, whose cost per slice climbs within
// a window (stream-send) or whose window is one slice (web-crash), have one
// per complete window: Σ normalised wall ÷ Σ segments.
func (m *measurement) hostUnits(w workload) (perNorm, perRaw []float64) {
	mix := w.refMix()
	units := len(m.slices) // one per slice …
	if w.rebuilds() {
		units = len(m.windows) // … or one per complete window
	}
	ns, rs, segs := make([]float64, units), make([]float64, units), make([]float64, units)
	for i, s := range m.slices {
		u := i
		if w.rebuilds() {
			u = s.window
		}
		if u < units {
			ns[u] += s.norm(mix)
			rs[u] += s.wallNS
			segs[u] += s.segments
		}
	}
	for u, seg := range segs {
		if seg > 0 {
			perNorm = append(perNorm, ns[u]/seg)
			perRaw = append(perRaw, rs[u]/seg)
		}
	}
	return perNorm, perRaw
}

// hostNormNSPerSegment is the run's host cost: the median unit.
func (m *measurement) hostNormNSPerSegment(w workload) (norm, raw float64) {
	perNorm, perRaw := m.hostUnits(w)
	return median(perNorm), median(perRaw)
}

// sliceIQR is the spread of the normalised per-segment slice values, a
// diagnostic of how well normalisation flattened the box's regimes.
func (m *measurement) sliceIQR(mix float64) float64 {
	var ns []float64
	for _, s := range m.slices {
		if s.segments > 0 {
			ns = append(ns, s.norm(mix)/s.segments)
		}
	}
	return iqrRatio(ns)
}

// virtual pools the first n windows into the run's virtual-time results.
type virtual struct {
	attempted, failed int64
	goodputKBps       float64
	p50ms, p99ms      float64
	samples, beyond99 int64 // latency samples, and how many lie beyond p99
	segments, events  int64
	digest            uint64
	notes             map[string]float64
}

func pool(ws []windowResult, n int) virtual {
	var v virtual
	var lat []int64
	var payload int64
	var virt time.Duration
	v.notes = map[string]float64{}
	v.digest = fnvOffset
	for _, w := range ws[:n] {
		v.attempted += w.attempted
		v.failed += w.failed
		payload += w.payload
		virt += w.virt
		v.segments += w.segments
		v.events += w.events
		v.digest = (v.digest ^ w.digest) * fnvPrime
		lat = append(lat, w.lat...)
		for k, x := range w.notes {
			v.notes[k] += x
		}
	}
	if virt > 0 {
		v.goodputKBps = float64(payload) / 1000 / virt.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, _ := percentileInt64(lat, 50)
	p99, beyond := percentileInt64(lat, 99)
	v.p50ms, v.p99ms, v.samples, v.beyond99 = float64(p50)/1e6, float64(p99)/1e6, int64(len(lat)), int64(beyond)
	return v
}
