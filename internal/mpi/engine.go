package mpi

import (
	"sync"
	"time"

	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// Engine is a pool of reusable simulated worlds. Building a world is the
// dominant cost of a Run at large rank counts — world-sized slabs, per-rank
// goroutines with fresh (and then growing) stacks, and the garbage the
// previous world left behind — so long-lived hosts (harness workers, benchd
// job bodies, benchmark loops) hold an Engine across Runs and pass it via
// WithEngine: a Run at a world size the pool has seen before reuses the
// cached world with an O(active-ranks) reset.
//
// What survives between runs: the rank array (with its grown allocation
// arenas), the mailboxes (with their per-source indexes and grown queue
// capacities), the scheduler's run-queue slab, the stackless cursors, and —
// for coroutine bodies — the parked rank coroutines with their grown stacks.
// What a reset clears is exactly the per-run state, so results are
// bit-identical to a fresh world (the pooled-determinism test pins this
// across every kernel).
//
// An Engine is safe for concurrent use: one mutex guards one size-keyed free
// list, taken once to pop a world and once to push it back, a few map
// operations each time against a run that costs microseconds to seconds.
// The engine_pool_wait_us histogram measures that acquisition; it is what
// would justify splitting the lock if a many-P host ever showed it hot.
// Worlds are pooled per size; a run at a size the pool does not hold is a
// miss that builds cold. Cancelled, timed-out, panicked and deadlocked runs
// quiesce before Run returns, so their worlds re-enter the pool and the next
// reset scrubs the poison (pinned by the pooled cancellation test).
type Engine struct {
	mu       sync.Mutex
	free     map[int][]*pooledWorld // cached worlds by size
	cached   int                    // total ranks in free
	maxRanks int
	closed   bool
}

// pooledWorld pairs a reusable world with its rank array.
type pooledWorld struct {
	w     *World
	ranks []Rank
}

// engineMaxCachedRanks bounds the total ranks an Engine retains: 2M ranks
// covers the full benchmark curve (one 1M-rank world plus change) while
// capping retained memory; larger pools would mostly cache worlds no one
// re-requests.
const engineMaxCachedRanks = 2 << 20

// NewEngine returns an empty world pool.
func NewEngine() *Engine {
	return &Engine{free: make(map[int][]*pooledWorld), maxRanks: engineMaxCachedRanks}
}

// Close empties the pool and retires every cached world's rank coroutines.
// The engine remains usable — subsequent runs simply build cold and are not
// re-cached — so a racing Run never observes a closed pool as an error.
func (g *Engine) Close() {
	g.mu.Lock()
	g.closed = true
	var all []*pooledWorld
	for n, l := range g.free {
		all = append(all, l...)
		delete(g.free, n)
	}
	g.cached = 0
	g.mu.Unlock()
	for _, pw := range all {
		pw.w.sched.retire()
	}
}

// run executes one pooled run: exactly one of body (coroutine ranks) or
// progFor (stackless cursors) is non-nil. The same pooled world serves
// either representation — cursors and rank coroutines coexist, parked,
// and only the representation the run uses is touched.
func (g *Engine) run(n int, model *netmodel.Model, body func(*Rank),
	progFor func(rank int) OpStream, cfg *config) (*Result, error) {
	pw := g.acquire(n, model, cfg)
	res, err := runEvent(pw.w, cfg, pw.ranks, body, progFor)
	// runEvent returns only after the world quiesced (every rank finished or
	// unwound) in all outcomes — success, panic, cancel, timeout, deadlock —
	// so the world is always safe to re-pool.
	g.release(pw)
	return res, err
}

// acquire returns a world for size n: a pooled one (reset in place) on a
// hit, a cold build on a miss. The time spent taking the world off the free
// list — which under concurrent Runs is exactly the pool's lock contention —
// is recorded in the engine_pool_wait_us histogram.
func (g *Engine) acquire(n int, model *netmodel.Model, cfg *config) *pooledWorld {
	var waitStart time.Time
	if telemetry.Enabled() {
		waitStart = time.Now()
	}
	g.mu.Lock()
	pw := g.popLocked(n)
	g.mu.Unlock()
	if !waitStart.IsZero() {
		histEnginePoolWaitUS.Observe(float64(time.Since(waitStart)) / float64(time.Microsecond))
	}

	var setupStart time.Time
	if telemetry.Enabled() {
		setupStart = time.Now()
	}
	if pw != nil {
		ctrWorldReuseHits.Inc()
		pw.reset(model, cfg)
	} else {
		ctrWorldReuseMisses.Inc()
		w, ranks := newWorld(n, model, cfg)
		pw = &pooledWorld{w: w, ranks: ranks}
	}
	if !setupStart.IsZero() {
		histRunSetupUS.Observe(float64(time.Since(setupStart)) / float64(time.Microsecond))
	}
	return pw
}

// popLocked removes one size-n world from the free list, nil when it holds
// none; the caller holds g.mu.
func (g *Engine) popLocked(n int) *pooledWorld {
	l := g.free[n]
	if len(l) == 0 {
		return nil
	}
	pw := l[len(l)-1]
	l[len(l)-1] = nil
	if len(l) == 1 {
		delete(g.free, n)
	} else {
		g.free[n] = l[:len(l)-1]
	}
	g.cached -= n
	return pw
}

// release returns a world to the free list, first evicting cached worlds —
// the largest size class first, since big worlds hold the most memory per
// slot — until the rank budget has room for it. A world that cannot fit (or
// arrives after Close) is shut down instead of cached. Evicted worlds are
// retired after the lock is dropped.
func (g *Engine) release(pw *pooledWorld) {
	n := pw.w.n
	var retire []*pooledWorld
	g.mu.Lock()
	if g.closed || n > g.maxRanks {
		retire = append(retire, pw)
	} else {
		// Terminates: an empty list has cached == 0 and n <= maxRanks.
		for g.cached+n > g.maxRanks {
			largest := 0
			for size := range g.free {
				largest = max(largest, size)
			}
			retire = append(retire, g.popLocked(largest))
		}
		g.free[n] = append(g.free[n], pw)
		g.cached += n
	}
	g.mu.Unlock()
	for _, old := range retire {
		old.w.sched.retire()
	}
}

// cachedWorlds reports, per size class, how many worlds the pool currently
// holds (test hook).
func (g *Engine) cachedWorlds() map[int]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[int]int, len(g.free))
	for n, l := range g.free {
		out[n] = len(l)
	}
	return out
}

// reset prepares a pooled world for its next run. Only called between runs,
// after the previous run fully quiesced, by the goroutine that will drive the
// next one: every write here is ordered before the ranks' reads by the
// driver's first switch into each coroutine, or — for cursors — by program
// order.
func (pw *pooledWorld) reset(model *netmodel.Model, cfg *config) {
	w := pw.w
	w.model = model
	w.stop.reset()
	w.sched.reset()
	// Always assigned: a nil graph clears a previous profiled run's hook.
	if w.prof = cfg.graph; w.prof != nil {
		w.prof.arm(w.n)
	}
	for i := range pw.ranks {
		var tr Tracer
		if cfg.tracerFor != nil {
			tr = cfg.tracerFor(i)
		}
		pw.ranks[i].reset(tr)
	}
	for _, mb := range w.mailboxes {
		mb.reset()
	}
	// Sub-communicators minted by CommSplit/CommDup died with the previous
	// run (nothing in the world references them); only the world
	// communicator's rendezvous needs re-arming.
	w.commWorld.sync.(*seqColl).reset()
	w.nextCommID = 0
}
