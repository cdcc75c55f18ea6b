package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Telemetry handles for the configuration pool.
var (
	ctrConfigsDone   = telemetry.NewCounter("harness.configs_done")
	ctrConfigsFailed = telemetry.NewCounter("harness.configs_failed")
	ctrWorkerPanics  = telemetry.NewCounter("harness.worker_panics")
	ctrPoolJobsRun   = telemetry.NewCounter("harness.pool_jobs_run")
	ctrPoolPanics    = telemetry.NewCounter("harness.pool_job_panics")
)

// poolOverride pins the number of experiment configurations the harness runs
// concurrently. Zero means "use GOMAXPROCS". Every configuration (one traced
// app, one generated-benchmark execution, one what-if variant) is an
// independent simulated world, so fanning them across workers changes only
// wall-clock time, never results: each job writes its own index-addressed
// result slot and builds its own collectors, profiles and models.
var poolOverride atomic.Int32

// sharedEngine pools simulated worlds across every run the harness starts.
// Experiment batches replay the same few world sizes dozens of times (trace,
// generate, replay, what-if variants), so after the first configuration at a
// size every later one gets a warm world. The pool is safe for the
// fan-out workers to share, and pooling never changes results — the
// pooled-determinism suite pins warm runs bit-identical to cold ones.
var sharedEngine = mpi.NewEngine()

// SharedEngine exposes the harness's world pool so co-hosted components
// (benchd's pipeline stages) reuse the same warm worlds instead of
// maintaining a second pool.
func SharedEngine() *mpi.Engine { return sharedEngine }

// SetParallelism sets how many experiment configurations run concurrently.
// k <= 0 restores the default (GOMAXPROCS). Results are identical for every
// worker count.
func SetParallelism(k int) {
	if k < 0 {
		k = 0
	}
	poolOverride.Store(int32(k))
}

// Parallelism returns the effective concurrent-configuration count.
func Parallelism() int {
	if k := poolOverride.Load(); k > 0 {
		return int(k)
	}
	return runtime.GOMAXPROCS(0)
}

// forEachNamed runs fn(i) for every i in [0, n) on up to Parallelism()
// goroutines. Jobs must be independent and write results into index-addressed
// slots, so the outcome does not depend on scheduling; the returned error is
// the lowest-index failure, which keeps error reporting deterministic too.
// Each job is a whole simulated world, so work is handed out one index at a
// time. A panic inside fn(i) is recovered and surfaces as that one
// configuration's error — naming it through name(i) — instead of tearing down
// the whole experiment run, and the remaining jobs still complete. name may
// be nil, in which case failed jobs are reported by index.
//
// The caller is one of the min(Parallelism(), n) workers; each pulls the next
// index off a shared cursor until none are left. A single worker therefore
// visits the indices in order on the caller's goroutine, and it alone stops
// at its first failure — which is already the lowest-index one.
func forEachNamed(n int, name func(i int) string, fn func(i int) error) error {
	workers := min(Parallelism(), n)
	if workers <= 0 {
		return nil
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = runJob(name, i, fn); errs[i] != nil && workers == 1 {
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobName renders the display name for job i.
func jobName(name func(i int) string, i int) string {
	if name != nil {
		if s := name(i); s != "" {
			return s
		}
	}
	return fmt.Sprintf("#%d", i)
}

// ErrQueueFull is returned by Pool.Submit when the bounded queue has no free
// slot; callers translate it into backpressure (benchd answers 429).
var ErrQueueFull = errors.New("harness: job queue full")

// ErrPoolClosed is returned by Pool.Submit after Drain began.
var ErrPoolClosed = errors.New("harness: pool closed")

// Pool is a long-lived bounded worker pool for service-style workloads, as
// opposed to forEachNamed's one-shot experiment fan-out. Jobs carry a
// context.Context that the worker hands to the job body; the body is
// expected to thread it into everything cancellable it starts (simulated
// runs via mpi.WithContext, stage boundaries via ctx.Err checks), so a
// cancelled or timed-out job actually stops pipeline work instead of leaking
// goroutines. Submit never blocks: a full queue is reported as ErrQueueFull
// and left to the caller's backpressure policy.
type Pool struct {
	jobs chan poolJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type poolJob struct {
	ctx context.Context
	run func(ctx context.Context)
}

// NewPool starts a pool with the given number of workers and queue capacity.
// workers <= 0 uses Parallelism(); queueCap <= 0 means no buffering (a job is
// accepted only if a worker is idle and receiving). Each worker goroutine
// runs one job body at a time, so `workers` bounds the jobs in flight.
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = Parallelism()
	}
	if queueCap < 0 {
		queueCap = 0
	}
	p := &Pool{jobs: make(chan poolJob, queueCap)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				p.runOne(j)
			}
		}()
	}
	return p
}

// runOne executes a submitted job, containing a panic to that job: a
// crashing request must not take down the pool's worker (and with it the
// daemon's capacity).
func (p *Pool) runOne(j poolJob) {
	defer func() {
		if r := recover(); r != nil {
			ctrPoolPanics.Inc()
			telemetry.Eventf("harness: pool job panic: %v", r)
		}
	}()
	ctrPoolJobsRun.Inc()
	j.run(j.ctx)
}

// Submit enqueues a job without blocking. The job body receives ctx (never
// nil) when a worker picks it up; a body that observes ctx already cancelled
// should record that outcome itself — the pool does not second-guess it.
func (p *Pool) Submit(ctx context.Context, run func(ctx context.Context)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- poolJob{ctx: ctx, run: run}:
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueLen reports how many accepted jobs are waiting for a worker.
func (p *Pool) QueueLen() int { return len(p.jobs) }

// Drain stops accepting new jobs and blocks until every previously accepted
// job — queued or running — has finished. This is the graceful-shutdown
// guarantee benchd relies on: no accepted job is lost.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// runJob executes one configuration, recovering a panic into an error that
// names the configuration, and counts the outcome.
func runJob(name func(i int) string, i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			jb := jobName(name, i)
			ctrWorkerPanics.Inc()
			telemetry.Eventf("harness: worker panic in configuration %s: %v", jb, r)
			err = fmt.Errorf("harness: configuration %s panicked: %v\n%s", jb, r, debug.Stack())
		}
		if err != nil {
			ctrConfigsFailed.Inc()
		} else {
			ctrConfigsDone.Inc()
		}
	}()
	return fn(i)
}
