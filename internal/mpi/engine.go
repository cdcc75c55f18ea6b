package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
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
// An Engine is safe for concurrent use, and built for it: the free lists are
// sharded into per-P sub-pools (one per GOMAXPROCS at construction), each
// under its own mutex, with acquisition and release rotating across shards
// and stealing from the others when the first choice is empty or contended.
// Concurrent Runs on a work-stealing RunPool therefore never serialize on a
// single pool lock. Worlds are pooled per size; a run at a size no shard
// holds is a miss that builds cold. Cancelled, timed-out, panicked and
// deadlocked runs quiesce before Run returns, so their worlds re-enter the
// pool and the next reset scrubs the poison (pinned by the pooled
// cancellation test).
type Engine struct {
	shards   []engineShard
	rr       atomic.Uint32 // rotation hint spreading acquires/releases over shards
	cached   atomic.Int64  // total ranks cached across all shards
	maxRanks int
	closedMu sync.Mutex
	closed   bool
}

// engineShard is one per-P sub-pool: a size-keyed free list under its own
// mutex. Shards are a contention-avoidance partition, not a semantic one —
// any run may acquire from (steal) any shard.
type engineShard struct {
	mu   sync.Mutex
	free map[int][]*pooledWorld
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

// NewEngine returns an empty world pool with one sub-pool shard per P.
func NewEngine() *Engine {
	ns := runtime.GOMAXPROCS(0)
	if ns < 1 {
		ns = 1
	}
	g := &Engine{shards: make([]engineShard, ns), maxRanks: engineMaxCachedRanks}
	for i := range g.shards {
		g.shards[i].free = make(map[int][]*pooledWorld)
	}
	return g
}

// Close empties every shard and retires every cached world's rank
// coroutines. The engine remains usable — subsequent runs simply build cold
// and are not re-cached — so a racing Run never observes a closed pool as
// an error.
func (g *Engine) Close() {
	g.closedMu.Lock()
	g.closed = true
	g.closedMu.Unlock()
	var all []*pooledWorld
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for n, l := range s.free {
			all = append(all, l...)
			g.cached.Add(int64(-n * len(l)))
			delete(s.free, n)
		}
		s.mu.Unlock()
	}
	for _, pw := range all {
		pw.w.sched.retire()
	}
}

// isClosed reports whether Close has been called.
func (g *Engine) isClosed() bool {
	g.closedMu.Lock()
	defer g.closedMu.Unlock()
	return g.closed
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
// hit, a cold build on a miss. The time spent searching the sharded free
// lists — which under concurrent Runs is exactly the pool's lock contention
// — is recorded in the engine_pool_wait_us histogram.
func (g *Engine) acquire(n int, model *netmodel.Model, cfg *config) *pooledWorld {
	var waitStart time.Time
	if telemetry.Enabled() {
		waitStart = time.Now()
	}
	pw := g.takeCached(n)
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

// takeCached removes and returns a size-n world from any shard, nil when no
// shard holds one. The search makes a TryLock pass first — an uncontended
// shard costs one CAS — and only falls back to blocking locks on the shards
// it had to skip, so a cached world is never missed, merely found a little
// later under contention.
func (g *Engine) takeCached(n int) *pooledWorld {
	ns := len(g.shards)
	start := int(g.rr.Add(1)-1) % ns
	contended := false
	for i := 0; i < ns; i++ {
		s := &g.shards[(start+i)%ns]
		if !s.mu.TryLock() {
			contended = true
			continue
		}
		if pw := s.popLocked(n); pw != nil {
			s.mu.Unlock()
			g.cached.Add(int64(-n))
			return pw
		}
		s.mu.Unlock()
	}
	if !contended {
		return nil
	}
	for i := 0; i < ns; i++ {
		s := &g.shards[(start+i)%ns]
		s.mu.Lock()
		if pw := s.popLocked(n); pw != nil {
			s.mu.Unlock()
			g.cached.Add(int64(-n))
			return pw
		}
		s.mu.Unlock()
	}
	return nil
}

// popLocked removes one size-n world from the shard; the caller holds its
// mutex.
func (s *engineShard) popLocked(n int) *pooledWorld {
	l := s.free[n]
	if len(l) == 0 {
		return nil
	}
	pw := l[len(l)-1]
	l[len(l)-1] = nil
	if len(l) == 1 {
		delete(s.free, n)
	} else {
		s.free[n] = l[:len(l)-1]
	}
	return pw
}

// release returns a world to a shard, evicting older worlds if the rank
// budget overflows. Worlds that don't fit (or arrive after Close) are shut
// down instead of cached.
func (g *Engine) release(pw *pooledWorld) {
	n := pw.w.n
	if g.isClosed() || n > g.maxRanks {
		pw.w.sched.retire()
		return
	}
	// Reserve the budget first so concurrent releases each see their own
	// world counted, then evict until the total fits. The budget check is a
	// soft bound under concurrency: if every shard is empty the world is
	// inserted anyway (the overshoot is at most one world per releasing
	// goroutine and disappears with the next eviction).
	g.cached.Add(int64(n))
	for g.cached.Load() > int64(g.maxRanks) {
		old := g.evictOne()
		if old == nil {
			break
		}
		old.w.sched.retire()
	}
	ns := len(g.shards)
	start := int(g.rr.Add(1)-1) % ns
	for i := 0; i < ns; i++ {
		s := &g.shards[(start+i)%ns]
		if s.mu.TryLock() {
			s.free[n] = append(s.free[n], pw)
			s.mu.Unlock()
			return
		}
	}
	s := &g.shards[start]
	s.mu.Lock()
	s.free[n] = append(s.free[n], pw)
	s.mu.Unlock()
}

// evictOne removes one cached world — the largest size class across every
// shard, since big worlds hold the most memory per slot — and returns it
// (nil when the pool is empty). Eviction is rare, so it may scan shards
// twice; shards are locked one at a time, never nested.
func (g *Engine) evictOne() *pooledWorld {
	best, bestShard := 0, -1
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for n, l := range s.free {
			if len(l) > 0 && n > best {
				best, bestShard = n, i
			}
		}
		s.mu.Unlock()
	}
	if bestShard < 0 {
		return nil
	}
	s := &g.shards[bestShard]
	s.mu.Lock()
	// The class may have been drained between the scan and this lock; fall
	// back to the shard's current largest.
	pw := s.popLocked(best)
	if pw == nil {
		best = 0
		for n, l := range s.free {
			if len(l) > 0 && n > best {
				best = n
			}
		}
		pw = s.popLocked(best)
	}
	s.mu.Unlock()
	if pw != nil {
		g.cached.Add(int64(-pw.w.n))
	}
	return pw
}

// cachedWorlds reports, per size class, how many worlds the pool currently
// holds across all shards (test hook).
func (g *Engine) cachedWorlds() map[int]int {
	out := map[int]int{}
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for n, l := range s.free {
			if len(l) > 0 {
				out[n] += len(l)
			}
		}
		s.mu.Unlock()
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
