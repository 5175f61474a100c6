package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded parallel execution.
//
// A ShardGroup partitions one simulated topology across N domain Schedulers
// and advances them in conservative time-window lockstep (a classic
// Chandy–Misra–Bryant null-message-free variant): every window the group
// computes the earliest pending event time across all domains (ne), opens a
// half-open window [now, W) with W = min(ne + lookahead, target), runs every
// domain to W — in parallel on worker goroutines — and then exchanges
// cross-domain traffic at the barrier. Lookahead is the minimum cross-domain
// link latency: an event executing at time t can only cause a remote event
// at t + latency ≥ ne + lookahead ≥ W, so nothing a domain does inside a
// window can affect another domain within that same window, and domains can
// run the window concurrently without synchronizing.
//
// Determinism — the sharded run is byte-identical to the sequential one —
// rests on three rules:
//
//  1. Heap keys are (when, stream, seq) with per-stream seq counters
//     (sim.go). A cell's events are keyed only by the cell's own causal
//     history, never by interleaving with other cells.
//  2. Cross-domain deliveries carry explicit keys allocated on the sending
//     side from the mailbox's own wire stream (Mailbox.Post), and execute
//     under an rx stream registered in the destination domain. Both stream
//     ids are global, assigned in topology order, so the keys are identical
//     whether the two endpoints share a domain or not.
//  3. Deliveries are injected at window barriers, always at times the
//     half-open window has not yet executed past (when ≥ W), so the
//     destination heap totally orders them against local events exactly as
//     a single shared heap would have.
//
// Goroutine interleaving can therefore only change *wall-clock* order, never
// virtual-time order: each domain's heap pops a total order, and the merged
// order per stream is fixed by the keys.
type ShardGroup struct {
	domains []*Scheduler
	boxes   []*Mailbox
	workers int

	now       time.Duration
	windowEnd time.Duration // published before each window's workers start
	nextSID   StreamID      // wire/rx stream id allocator
	windows   int64
	errs      []error // per-domain, reused every window
}

// mailboxStreamBase is the first stream id handed to mailboxes. Topology
// builders must keep cell stream ids below it.
const mailboxStreamBase StreamID = 1 << 20

const maxDuration = time.Duration(math.MaxInt64)

// NewShardGroup creates a lockstep group over the given domain schedulers.
// The default worker count is min(GOMAXPROCS, len(domains)).
func NewShardGroup(domains ...*Scheduler) *ShardGroup {
	if len(domains) == 0 {
		panic("sim: shard group needs at least one domain")
	}
	w := runtime.GOMAXPROCS(0)
	if w > len(domains) {
		w = len(domains)
	}
	return &ShardGroup{
		domains: domains,
		workers: w,
		nextSID: mailboxStreamBase,
		errs:    make([]error, len(domains)),
	}
}

// Now returns the group's virtual time: the end of the last completed
// window. Individual domain clocks always equal it between windows.
func (g *ShardGroup) Now() time.Duration { return g.now }

// Windows returns how many lockstep windows have been executed.
func (g *ShardGroup) Windows() int64 { return g.windows }

// Executed returns the total events executed across all domains.
func (g *ShardGroup) Executed() int {
	n := 0
	for _, d := range g.domains {
		n += d.Executed()
	}
	return n
}

// CrossPosts returns the total number of deliveries buffered across domain
// boundaries (same-domain mailbox posts are injected directly and excluded).
func (g *ShardGroup) CrossPosts() int64 {
	var n int64
	for _, mb := range g.boxes {
		n += mb.crossPosts
	}
	return n
}

// SetWorkers caps the goroutines used per window. n <= 1 runs the domains
// serially on the calling goroutine (still byte-identical — parallelism is
// purely a wall-clock concern).
func (g *ShardGroup) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(g.domains) {
		n = len(g.domains)
	}
	g.workers = n
}

// Lookahead returns the group's conservative lookahead: the minimum latency
// over cross-domain mailboxes, or MaxInt64 if no link crosses a boundary
// (then every run is a single window — plain sequential execution).
func (g *ShardGroup) Lookahead() time.Duration {
	la := maxDuration
	for _, mb := range g.boxes {
		if mb.src != mb.dst && mb.minLat < la {
			la = mb.minLat
		}
	}
	return la
}

// StreamDigests merges every domain's per-stream digests, ordered by stream
// id. With EnableDigest on each domain this is the byte-identity witness the
// differential tests compare across shard counts. Domain default streams
// (id 0) are excluded: there is one per domain — a partition-dependent
// count — and simulation work never runs on them in a sharded build.
func (g *ShardGroup) StreamDigests() []StreamDigest {
	var out []StreamDigest
	for _, d := range g.domains {
		for _, sd := range d.StreamDigests() {
			if sd.ID != 0 {
				out = append(out, sd)
			}
		}
	}
	sortDigests(out)
	return out
}

func sortDigests(ds []StreamDigest) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].ID < ds[j-1].ID; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// --- mailbox -------------------------------------------------------------

// xpost is one buffered cross-domain delivery with its pre-allocated key.
type xpost struct {
	when time.Duration
	seq  uint64
	name string
	fn   func(any)
	arg  any
}

// Mailbox is a deterministic one-way delivery channel between two domains
// (possibly the same one). Posts carry keys from the mailbox's wire stream
// and execute under its rx stream in the destination domain, so delivery
// order — and everything the delivery causes — is independent of the
// partition. A Mailbox is owned by its source domain: Post may only be
// called from code running on src (or at build time, before windows start).
type Mailbox struct {
	g      *ShardGroup
	src    *Scheduler
	dst    *Scheduler
	minLat time.Duration
	sid    StreamID // wire stream: keys delivery events; counter lives here
	seq    uint64
	rx     *Stream // rx stream: delivery callbacks execute (and seed) here

	out        []xpost
	crossPosts int64
}

// NewMailbox registers a delivery channel from src to dst whose earliest
// possible delivery is minLatency after the send. minLatency bounds the
// group lookahead when the mailbox crosses domains, so it must be positive
// there; a same-domain mailbox (src == dst) delivers directly and tolerates
// zero. The seed feeds the rx stream's RNG. Mailboxes must be created in
// the same order for every partition of a topology — stream ids are
// allocated sequentially and must be partition-independent.
func (g *ShardGroup) NewMailbox(src, dst *Scheduler, minLatency time.Duration, seed int64) (*Mailbox, error) {
	if !g.owns(src) || !g.owns(dst) {
		return nil, fmt.Errorf("sim: mailbox endpoints must be domains of this group")
	}
	if src != dst && minLatency <= 0 {
		return nil, fmt.Errorf("sim: cross-domain mailbox needs positive minimum latency, got %v (zero-latency links only work sequentially)", minLatency)
	}
	wire := g.nextSID
	rxID := g.nextSID + 1
	g.nextSID += 2
	mb := &Mailbox{
		g:      g,
		src:    src,
		dst:    dst,
		minLat: minLatency,
		sid:    wire,
		rx:     dst.NewStream(rxID, seed),
	}
	g.boxes = append(g.boxes, mb)
	return mb, nil
}

func (g *ShardGroup) owns(s *Scheduler) bool {
	for _, d := range g.domains {
		if d == s {
			return true
		}
	}
	return false
}

// Post schedules fn(arg) at virtual time when in the destination domain.
// Same-domain posts inject immediately; cross-domain posts are buffered in
// the source domain and drained at the next window barrier. Either way the
// event's key is (when, wire stream, next wire seq) — identical across
// partitions because the counter advances per post, in the source cell's
// deterministic causal order.
func (mb *Mailbox) Post(when time.Duration, name string, fn func(any), arg any) {
	seq := mb.seq
	mb.seq++
	if mb.src == mb.dst {
		mb.dst.Inject(when, mb.sid, seq, mb.rx, name, fn, arg)
		return
	}
	if when < mb.g.windowEnd {
		panic(fmt.Sprintf("sim: cross-domain post at %v inside window ending %v — link delivers below the declared %v minimum latency", when, mb.g.windowEnd, mb.minLat))
	}
	mb.crossPosts++
	mb.out = append(mb.out, xpost{when: when, seq: seq, name: name, fn: fn, arg: arg})
}

// drain injects every buffered delivery into the destination heap. Runs at
// barriers only, after all domain workers have quiesced.
func (mb *Mailbox) drain() {
	for i := range mb.out {
		p := &mb.out[i]
		mb.dst.Inject(p.when, mb.sid, p.seq, mb.rx, p.name, p.fn, p.arg)
		p.name = ""
		p.fn = nil
		p.arg = nil
	}
	mb.out = mb.out[:0]
}

// --- window loop ---------------------------------------------------------

// nextEventBound returns a lower bound on the scheduler's earliest pending
// event: the heap top, or either wheel level's earliest staged slot start
// (≤ every event staged in that slot).
func (s *Scheduler) nextEventBound() (time.Duration, bool) {
	has := false
	var b time.Duration
	if len(s.queue) > 0 {
		b = s.queue[0].when
		has = true
	}
	staged := func(w *timerWheel, unit time.Duration) {
		if w != nil && w.count > 0 {
			if wb := time.Duration(w.nextTick()) * unit; !has || wb < b {
				b = wb
			}
			has = true
		}
	}
	staged(s.wheel, wheelTick)
	staged(s.far, farTick)
	return b, has
}

// runBefore executes every event with when strictly < t, then advances the
// clock to t. The half-open bound is what makes barrier injection safe:
// deliveries landing exactly on a window edge have not been passed by.
func (s *Scheduler) runBefore(t time.Duration) error {
	start := s.executed
	for {
		s.settle()
		if len(s.queue) == 0 || s.queue[0].when >= t {
			if s.now < t {
				s.now = t
			}
			return nil
		}
		s.fire()
		if s.executed-start > s.limit {
			return fmt.Errorf("%w (%d events, now=%v)", ErrEventLimit, s.executed-start, s.now)
		}
	}
}

// nextWindow picks the end of the next lockstep window: min over domains of
// the next-event bound, plus lookahead, clamped to limit. With no pending
// events anywhere (or no cross-domain links) the window jumps straight to
// the limit.
func (g *ShardGroup) nextWindow(limit time.Duration) time.Duration {
	la := g.Lookahead()
	if la == maxDuration {
		return limit
	}
	ne := maxDuration
	for _, d := range g.domains {
		if b, ok := d.nextEventBound(); ok && b < ne {
			ne = b
		}
	}
	if ne == maxDuration {
		return limit
	}
	if ne < g.now {
		ne = g.now
	}
	if ne >= limit-la { // overflow-safe: ne + la would pass limit
		return limit
	}
	return ne + la
}

// runWindow advances every domain to w (half-open), then exchanges
// cross-domain deliveries at the barrier. Domains run on worker goroutines;
// the WaitGroup barrier gives the drain a happens-before edge over every
// buffered post, and the next window's goroutine launches hand the injected
// events back to their domains.
func (g *ShardGroup) runWindow(w time.Duration) error {
	g.windowEnd = w
	g.windows++
	if g.workers <= 1 || len(g.domains) == 1 {
		for i, d := range g.domains {
			g.errs[i] = d.runBefore(w)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(g.workers)
		for k := 0; k < g.workers; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(g.domains) {
						return
					}
					g.errs[i] = g.domains[i].runBefore(w)
				}
			}()
		}
		wg.Wait()
	}
	for _, mb := range g.boxes {
		mb.drain()
	}
	g.now = w
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances the whole group to t, executing every event with
// when < t (half-open, unlike Scheduler.RunUntil's closed bound — callers
// that need events exactly at t should run to t+1ns). All domain clocks
// equal t afterwards.
func (g *ShardGroup) RunUntil(t time.Duration) error {
	for g.now < t {
		if err := g.runWindow(g.nextWindow(t)); err != nil {
			return err
		}
	}
	return nil
}
