package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// World is one simulated machine execution: n ranks, a network model, and
// the transport state connecting them.
type World struct {
	n          int
	model      *netmodel.Model
	mailboxes  []*mailbox
	commWorld  *Comm
	nextCommID int64
	// stop poisons the world on cancellation or timeout so every rank
	// goroutine unwinds instead of leaking (see cancel.go).
	stop *runStop
	// sched is the discrete-event engine driving this world, nil when the
	// world runs on the goroutine-per-rank runtime (WithGoroutineRuntime).
	sched *eventLoop
	// prof, when non-nil, is the causal dependency graph this run records
	// into (WithCausalProfile). Event engine only; see depgraph.go.
	prof *DepGraph
}

// Result reports the outcome of a completed run.
type Result struct {
	// PerRankUS holds each rank's final virtual clock in microseconds.
	PerRankUS []float64
	// ElapsedUS is the maximum final clock: the job's virtual makespan.
	ElapsedUS float64
}

type config struct {
	tracerFor   func(rank int) Tracer
	timeout     time.Duration
	goroutineRT bool
	ctx         context.Context
	engine      *Engine
	graph       *DepGraph
}

// Option configures a Run.
type Option func(*config)

// WithTracer installs a per-rank tracer factory (the PMPI hook).
func WithTracer(f func(rank int) Tracer) Option {
	return func(c *config) { c.tracerFor = f }
}

// WithTimeout bounds the real (wall-clock) duration of the run. A run that
// exceeds it is reported as a suspected deadlock. The default is 60 seconds.
// The event engine usually reports a true messaging deadlock long before any
// timeout: it proves the condition the moment its event queue empties with
// ranks still blocked.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithContext bounds the run by ctx: when ctx is cancelled (or its deadline
// passes) the run is torn down — every rank, blocked or computing, unwinds —
// and Run returns an error wrapping ctx.Err(). This is how a service-side
// per-job timeout reaches all the way into the simulated world.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// WithGoroutineRuntime runs the world on the original goroutine-per-rank
// runtime — every rank an OS-scheduled goroutine, blocking on mutexes and
// condition variables (mailboxes, and lockedColl for collectives) — instead
// of the discrete-event engine. It is the semantic reference tests compare
// the engine against (virtual-time results are bit-identical; the
// differential suite proves it per application kernel) and exercises the
// transport under real concurrency for the race-detector builds. No
// production caller selects it.
func WithGoroutineRuntime() Option {
	return func(c *config) { c.goroutineRT = true }
}

// WithEngine runs the world on a reusable engine: rank structs, mailboxes,
// arenas, the scheduler heap and (for coroutine bodies) the parked rank
// coroutines are drawn from eng's pool and returned to it when the run
// completes, so repeated Runs at the same world size pay an O(active-ranks)
// reset instead of a full allocation. Results are bit-identical to a fresh
// world. The option is ignored for the goroutine runtime, whose worlds are
// not poolable. Requests for *Request lifetimes: a request held across Runs
// on the same engine is invalidated by the pool's arena rewind.
func WithEngine(eng *Engine) Option {
	return func(c *config) { c.engine = eng }
}

// WithCausalProfile records the run's causal dependency graph — every
// resolved receive match, flow-control resume and collective rendezvous,
// with virtual timestamps and call sites — into g for post-run critical-path
// and wait-state analysis (see internal/critpath). g is rearmed at run
// start; read it after Run returns successfully. Recording is observation
// only: virtual clocks, traces and results are bit-identical with and
// without it. Requires the discrete-event engine — combining it with
// WithGoroutineRuntime is an error, because the goroutine runtime has no
// single observation point per dependency.
func WithCausalProfile(g *DepGraph) Option {
	return func(c *config) { c.graph = g }
}

// denseSrcIndexRanks bounds the world size that uses dense per-source
// mailbox indexes. The dense form is one pointer-free int32 slab of n² —
// 64 MiB at 4096 ranks, but 16 TiB at 65536 — so larger worlds fall back
// to lazy per-mailbox maps, which stay small because each rank talks to
// O(log n) peers in every kernel this repo models.
const denseSrcIndexRanks = 4096

// rankMain is the shared bottom frame of every rank's execution under both
// runtimes: Init event, application body, Finalize. Keeping it a single
// named function matters beyond tidiness — callSite() hashes the call path
// below the application body and truncates the walk at this frame, so a
// source location hashes identically no matter which engine drives it. It is
// kept out of line so that the frame has one program counter under the body,
// which callSite learns and bounds its walks by.
//
//go:noinline
func rankMain(r *Rank, body func(*Rank)) {
	r.recordInit()
	body(r)
	r.SetCallSite(rankMainSite)
	r.Finalize()
}

// recordInit records the Init event a rank of either representation opens
// with. Init and Finalize issue from rankMain's own frame, so their site is
// known statically (rankMainSite) and stamped rather than walked.
func (r *Rank) recordInit() {
	r.SetCallSite(rankMainSite)
	r.record(r.enter(), &Event{Op: OpInit, CommID: 0, CommSize: r.w.n,
		Peer: NoPeer, PeerWorld: NoPeer, Root: -1})
}

// ErrDeadlock is wrapped by the error of a run the event engine proved
// deadlocked: its run queue emptied with live ranks still blocked, so no
// message, credit or collective can ever arrive. (A run that merely
// exceeds the wall-clock timeout is "deadlock suspected" and does not
// wrap it.)
var ErrDeadlock = errors.New("mpi: deadlock detected")

// Run executes body on n simulated ranks over the given network model and
// waits for completion. By default ranks advance on a single-threaded
// discrete-event engine in virtual-time order (see scheduler.go), which is
// what lets one process host hundreds of thousands of ranks. Run returns an
// error if any rank panics, if the ranks deadlock, or if the run does not
// complete within the (real-time) timeout.
func Run(n int, model *netmodel.Model, body func(*Rank), opts ...Option) (*Result, error) {
	cfg, err := prepare(&n, &model, opts)
	if err != nil {
		return nil, err
	}
	if cfg.engine != nil && !cfg.goroutineRT {
		return cfg.engine.run(n, model, body, nil, cfg)
	}
	var setupStart time.Time
	if telemetry.Enabled() {
		setupStart = time.Now()
	}
	w, ranks := newWorld(n, model, cfg)
	ctrWorldReuseMisses.Inc()
	if !setupStart.IsZero() {
		histRunSetupUS.Observe(float64(time.Since(setupStart)) / float64(time.Microsecond))
	}
	if w.sched != nil {
		// A one-shot world's coroutines end with the run.
		defer w.sched.retire()
		return runEvent(w, cfg, ranks, body, nil)
	}
	return runGoroutine(w, cfg, ranks, body)
}

// prepare validates Run's inputs and folds the options, defaulting the model
// and the timeout. It is shared by Run, RunStackless and the engine pool.
func prepare(n *int, model **netmodel.Model, opts []Option) (*config, error) {
	if *n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", *n)
	}
	if *model == nil {
		*model = netmodel.Ideal()
	}
	cfg := &config{timeout: 60 * time.Second}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.ctx != nil {
		// An already-cancelled context never starts the world at all.
		if err := cfg.ctx.Err(); err != nil {
			return nil, fmt.Errorf("mpi: run cancelled: %w", err)
		}
	}
	if cfg.graph != nil && cfg.goroutineRT {
		return nil, fmt.Errorf("mpi: WithCausalProfile requires the event engine (drop WithGoroutineRuntime)")
	}
	return cfg, nil
}

// newWorld builds a world and its rank array from scratch (a cold start —
// the engine pool's reset path is the warm equivalent).
func newWorld(n int, model *netmodel.Model, cfg *config) (*World, []Rank) {
	w := &World{n: n, model: model, mailboxes: make([]*mailbox, n), stop: newRunStop()}
	if !cfg.goroutineRT {
		w.sched = newEventLoop(n, w.stop)
	}
	if w.prof = cfg.graph; w.prof != nil {
		w.prof.arm(n)
	}

	// World-sized state is carved from a handful of backing arrays rather
	// than allocated per rank: the mailboxes, their per-source indexes and
	// the rank structs each cost one allocation for the whole world, and
	// the index slab holds no pointers for the garbage collector to scan.
	// Worlds beyond denseSrcIndexRanks skip the n² slab (see the constant).
	mbs := make([]mailbox, n)
	var srcIdx []int32
	if n <= denseSrcIndexRanks {
		srcIdx = make([]int32, n*n)
	}
	for i := range w.mailboxes {
		var idx []int32
		if srcIdx != nil {
			idx = srcIdx[i*n : (i+1)*n : (i+1)*n]
		}
		mbs[i].initMailbox(idx, int32(i), w.stop, w.sched)
		w.mailboxes[i] = &mbs[i]
		if w.sched == nil {
			// Event-mode mailboxes never wait on their condition variables,
			// so registering them with the stop latch would only slow the
			// trigger broadcast at large n.
			w.stop.register(&mbs[i].cond)
		}
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	w.commWorld = newComm(w, 0, group)

	ranks := make([]Rank, n)
	for i := range ranks {
		r := &ranks[i]
		r.w = w
		r.rank = i
		if cfg.tracerFor != nil {
			r.tracer = cfg.tracerFor(i)
		}
	}
	return w, ranks
}

// runGoroutine is the original runtime: one OS-scheduled goroutine per
// rank, all runnable at once, blocking on the transport's mutexes and
// condition variables. Retained behind WithGoroutineRuntime as the
// semantic reference for the event engine.
func runGoroutine(w *World, cfg *config, ranks []Rank, body func(*Rank)) (*Result, error) {
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked []error
	)
	for i := range ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, stopped := p.(runStopped); stopped {
						// Orderly teardown of a cancelled run, not a failure.
						return
					}
					panicMu.Lock()
					panicked = append(panicked,
						fmt.Errorf("mpi: rank %d panicked: %v\n%s", r.rank, p, debug.Stack()))
					panicMu.Unlock()
				}
			}()
			rankMain(r, body)
		}(&ranks[i])
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var ctxDone <-chan struct{}
	if cfg.ctx != nil {
		ctxDone = cfg.ctx.Done()
	}
	timer := time.NewTimer(cfg.timeout)
	defer timer.Stop()
	timedOut := false
	var ctxErr error
	select {
	case <-done:
	case <-timer.C:
		timedOut = true
	case <-ctxDone:
		ctxErr = cfg.ctx.Err()
	}
	if timedOut || ctxErr != nil {
		// Poison the world and wait for every rank goroutine to unwind: a
		// cancelled or deadlocked run must not leak its ranks. Blocked ranks
		// are woken by the trigger; computing ranks stop at their next MPI
		// call.
		ctrRunsCancelled.Inc()
		w.stop.trigger()
		<-done
	}

	// A panicking rank leaves its peers blocked, so a timeout often masks a
	// panic; report the panic when one was captured.
	panicMu.Lock()
	defer panicMu.Unlock()
	if len(panicked) > 0 {
		return nil, panicked[0]
	}
	if ctxErr != nil {
		return nil, fmt.Errorf("mpi: run cancelled: %w", ctxErr)
	}
	if timedOut {
		return nil, fmt.Errorf("mpi: run did not complete within %v (deadlock suspected)", cfg.timeout)
	}
	return collectResult(ranks), nil
}

func collectResult(ranks []Rank) *Result {
	ctrWorldsCompleted.Inc()
	res := &Result{PerRankUS: make([]float64, len(ranks))}
	for i := range ranks {
		res.PerRankUS[i] = ranks[i].clock
		if ranks[i].clock > res.ElapsedUS {
			res.ElapsedUS = ranks[i].clock
		}
	}
	return res
}
