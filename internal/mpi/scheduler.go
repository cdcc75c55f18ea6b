//go:build go1.23

package mpi

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// This file is the discrete-event engine: the default scheduler behind
// World.Run and RunStackless. One driver loop, on Run's own goroutine, pops
// the next runnable rank off the run queue and steps it until it blocks or
// finishes. A rank is one of two things to step: a stackless cursor (see
// stackless.go), advanced by a plain method call, or — for an arbitrary
// imperative body, whose continuation has to live on a stack — a runtime
// coroutine (iter.Pull), resumed with next() and parked again by the yield
// inside block. Either way at most one rank runs at any instant and
// control always comes back to the driver before the next rank is chosen.
// Every blocking primitive (receive match, flow-control credit, collective
// rendezvous) is an event-queue interaction instead of a mutex/cond park:
// the blocking rank registers itself with the structure it waits on and
// returns to the driver; the rank that satisfies the wait pushes the waiter
// back onto the run queue. The run queue is a min-heap keyed on (virtual
// clock, rank), so execution advances in virtual-time order with a fixed
// tie-break — which makes the engine fully deterministic, including
// wildcard-receive matching.
//
// A coroutine switch is a direct goroutine-to-goroutine transfer on the
// current thread: it never enters the Go scheduler, readies nothing and
// wakes no idle P, so a run costs the same whatever GOMAXPROCS is (a
// channel handoff between rank goroutines, which this replaced, woke a
// parked OS thread through a futex whenever a second P sat idle). That, and
// the absence of any mutex handoff or condvar broadcast, is what lets one
// process simulate hundreds of thousands of ranks. A second payoff is exact
// deadlock detection: when the run queue empties while live ranks remain
// parked, no future deposit, drain or collective completion can ever occur,
// and the driver reports the deadlock immediately instead of waiting out
// the wall-clock timeout.
//
// Memory-model note: all engine state is touched either by the driver or by
// the one rank it has switched to, never by both at once, and every
// driver ↔ rank switch is a synchronisation point (iter.Pull brackets each
// with a release/acquire pair the race detector sees). A pooled world may be
// driven from a different goroutine on each run, but never from two at
// once. So the engine is race-free without a single mutex; the only
// cross-goroutine signal is the stop latch the watcher trips, an atomic.

// rankState tracks where each rank is with respect to the driver.
type rankState uint8

const (
	// rsRunnable: in the run queue (or about to be seeded into it).
	rsRunnable rankState = iota
	// rsRunning: the driver has switched to it (or is stepping its cursor).
	rsRunning
	// rsBlocked: parked on a transport or collective wait; not in the run
	// queue. Only a wake moves it back to rsRunnable.
	rsBlocked
	// rsDone: body returned or unwound.
	rsDone
)

// eventLoop is the engine's shared state. See the memory-model note above
// for why none of it needs locks.
type eventLoop struct {
	ranks []Rank
	stop  *runStop

	// body is the rank body of the current run when its ranks are coroutines,
	// nil when they are cursors: it is what drive consults to pick how a rank
	// is stepped. Holding it here (rather than closing over it per coroutine)
	// is what lets a pooled world's coroutines outlive a single run.
	body func(*Rank)

	// coros are the per-rank coroutines, created by the first run with a
	// coroutine body and kept until retire: between runs each is parked in
	// the yield at the bottom of its loop, keeping its grown stack. cursors
	// are the per-rank stackless executors, likewise built lazily and kept. A
	// pooled world may hold both; a run touches only the kind it uses.
	coros   []rankCoro
	cursors []slExec

	state []rankState

	// heap is the run queue: a 4-ary min-heap ordered by (virtual clock,
	// rank). The clock key is cached in the entry — a rank's clock only
	// advances while it is running, so keys are immutable while queued —
	// which keeps every comparison inside the heap slab instead of chasing
	// into the rank array; with 16-byte entries one cache line holds a full
	// child group, and the 4-ary shape halves the levels a sift traverses.
	// Both matter: at 65536 ranks the run queue is the engine's only
	// super-constant per-event cost.
	heap []heapEnt

	nLive      int // ranks not yet rsDone
	dispatches uint64

	// panics collects non-teardown rank panics, in the order they happened.
	panics []error
}

// rankCoro is one rank's coroutine: next resumes it until its next yield,
// yield (called on the coroutine, from block or between runs) parks it, stop
// retires it.
type rankCoro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// heapEnt is one run-queue entry: the rank index plus its virtual clock at
// push time, cached so comparisons never leave the heap slab.
type heapEnt struct {
	clock float64
	rank  int32
}

func newEventLoop(n int, stop *runStop) *eventLoop {
	return &eventLoop{
		stop:  stop,
		state: make([]rankState, n),
		heap:  make([]heapEnt, 0, n),
		nLive: n,
	}
}

func (e *eventLoop) rank(i int32) *Rank { return &e.ranks[i] }

// reset re-arms the loop for the next run on a pooled world: all ranks
// become runnable again and the run queue empties (keeping its capacity).
// Coroutines and cursors are kept. Only called between runs, by the
// goroutine that will drive the next one.
func (e *eventLoop) reset() {
	clear(e.state) // rsRunnable is the zero state
	e.heap = e.heap[:0]
	e.nLive = len(e.state)
	e.dispatches = 0
	e.panics = nil
}

// spawn creates the rank coroutines. Idempotent: a pooled world's coroutines
// are parked between runs and serve the next run as they are. A coroutine
// runs one body per run and yields; it has not started until its first next.
func (e *eventLoop) spawn() {
	if e.coros != nil {
		return
	}
	e.coros = make([]rankCoro, len(e.state))
	for i := range e.coros {
		c := &e.coros[i]
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				e.runBody(&e.ranks[i])
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
}

// retire ends every rank coroutine. Ranks are parked between runs when it is
// called (runEvent returns only once every rank has left its body), so each
// stop returns from that yield; were one parked inside a body, block would
// unwind it.
func (e *eventLoop) retire() {
	for i := range e.coros {
		e.coros[i].stop()
	}
	e.coros = nil
}

// runBody executes one run's body on rank r's coroutine. Its recover is the
// outermost frame of the coroutine that can see a panic: one that escaped
// would be re-raised by iter.Pull in the driver.
func (e *eventLoop) runBody(r *Rank) {
	defer func() {
		if p := recover(); p != nil {
			e.notePanic(r, p)
		}
		e.state[r.rank] = rsDone
		e.nLive--
	}()
	e.stop.checkStopped()
	rankMain(r, e.body)
}

// notePanic files a recovered rank panic: a teardown unwind (runStopped) is
// orderly, anything else is kept for the run's error.
func (e *eventLoop) notePanic(r *Rank, p any) {
	if _, stopped := p.(runStopped); !stopped {
		e.panics = append(e.panics,
			fmt.Errorf("mpi: rank %d panicked: %v\n%s", r.rank, p, debug.Stack()))
	}
}

// block parks the calling coroutine rank (me) until some other rank wakes
// it. The caller re-checks its wait predicate on return: wakes may be
// spurious (any activity on a structure the rank registered with). A
// poisoned world never parks and never resumes — both sides unwind via
// checkStopped, so the application's defers run. A yield that reports the
// coroutine stopped unwinds the same way.
func (e *eventLoop) block(me int32) {
	e.stop.checkStopped()
	e.state[me] = rsBlocked
	if !e.coros[me].yield(struct{}{}) {
		panic(runStopped{})
	}
	e.stop.checkStopped()
}

// wake moves a blocked rank back into the run queue at its current virtual
// clock. Waking a rank that is already queued, running (a self-deposit) or
// done is a no-op, which is what makes spurious wakes harmless.
func (e *eventLoop) wake(i int32) {
	if e.state[i] != rsBlocked {
		return
	}
	e.state[i] = rsRunnable
	e.push(i)
	ctrSchedWakes.Inc()
}

// drive is the dispatch loop: step the least (clock, rank) runnable rank
// until it blocks or finishes, and repeat. It returns when the run queue is
// empty — deadlocked reports whether live ranks remain, all of them parked,
// so that no deposit, drain or collective completion can ever arrive again —
// or when the stop latch ends the run.
func (e *eventLoop) drive() (deadlocked bool) {
	for !e.stop.stopped() {
		if len(e.heap) == 0 {
			return e.nLive > 0
		}
		i := e.pop()
		e.state[i] = rsRunning
		ctrSchedEvents.Inc()
		e.dispatches++
		if e.dispatches&63 == 0 {
			histSchedHeapDepth.Observe(float64(len(e.heap)))
		}
		if e.body != nil {
			e.coros[i].next()
		} else {
			e.stepCursor(i)
		}
	}
	return false
}

// unwind takes every live coroutine rank of a poisoned world out of its
// body: each is resumed once, finds the stop latch set at its next
// checkStopped — in block if it was parked, at body entry if it never
// started — and panics out through the application's frames into runBody.
// Cursors are data; an abandoned one is simply overwritten by the next run.
func (e *eventLoop) unwind() {
	if e.body == nil {
		return
	}
	for i := range e.state {
		if e.state[i] != rsDone {
			e.state[i] = rsRunning
			e.coros[i].next()
		}
	}
}

// runEvent executes one run on w's engine — body on coroutine ranks, or,
// when body is nil, progFor's streams on cursors — and returns once every
// rank has finished or been unwound, so a pooled world can always be reused.
// The outcomes are completion, a rank panic, virtual deadlock (proven, not
// suspected), the wall-clock timeout and context cancellation.
func runEvent(w *World, cfg *config, ranks []Rank, body func(*Rank), progFor func(rank int) OpStream) (*Result, error) {
	e := w.sched
	e.ranks = ranks
	e.body = body
	if body != nil {
		e.spawn()
	} else {
		if len(e.cursors) != len(ranks) {
			e.cursors = make([]slExec, len(ranks))
		}
		for i := range e.cursors {
			e.cursors[i].init(progFor(i))
		}
	}
	// Every rank starts runnable at virtual time zero; pushing in rank order
	// builds a valid heap for all-equal keys.
	for i := range e.state {
		e.heap = append(e.heap, heapEnt{clock: 0, rank: int32(i)})
	}

	// The watcher turns the wall-clock timeout and context cancellation into
	// a stop-latch trigger, which the drive loop observes before each event
	// and the running rank at its next MPI call. Its flag writes are ordered
	// before our reads by the watcherDone close.
	var ctxDone <-chan struct{}
	if cfg.ctx != nil {
		ctxDone = cfg.ctx.Done()
	}
	finished := make(chan struct{})
	watcherDone := make(chan struct{})
	var timedOut bool
	var ctxErr error
	go func() {
		defer close(watcherDone)
		timer := time.NewTimer(cfg.timeout)
		defer timer.Stop()
		select {
		case <-finished:
		case <-timer.C:
			timedOut = true
			ctrRunsCancelled.Inc()
			w.stop.trigger()
		case <-ctxDone:
			ctxErr = cfg.ctx.Err()
			ctrRunsCancelled.Inc()
			w.stop.trigger()
		}
	}()

	deadlocked := e.drive()
	completed := e.nLive == 0
	close(finished)
	<-watcherDone

	if !completed {
		if deadlocked {
			ctrRunsCancelled.Inc()
		}
		// Poison the world (the watcher already has, unless this is a proven
		// deadlock) and take the coroutine ranks out of their bodies. A pooled
		// world re-enters the pool stopped, and reset re-arms it.
		w.stop.trigger()
		e.unwind()
	}
	// A panicking rank leaves its peers blocked, so a deadlock or timeout
	// often masks a panic; report the panic when one was captured.
	if len(e.panics) > 0 {
		return nil, e.panics[0]
	}
	if completed {
		// A timeout or cancellation that raced the finish is moot.
		res := collectResult(ranks)
		if w.prof != nil {
			w.prof.finish(res)
		}
		return res, nil
	}
	if ctxErr != nil {
		return nil, fmt.Errorf("mpi: run cancelled: %w", ctxErr)
	}
	if timedOut {
		return nil, fmt.Errorf("mpi: run did not complete within %v (deadlock suspected)", cfg.timeout)
	}
	return nil, fmt.Errorf("%w: every live rank is blocked and no event is pending", ErrDeadlock)
}

// entLess orders the run queue by virtual clock, rank index breaking ties —
// the engine's fixed, documented tie-break (DESIGN.md §7).
func entLess(a, b heapEnt) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.rank < b.rank)
}

func (e *eventLoop) push(i int32) {
	ent := heapEnt{clock: e.ranks[i].clock, rank: i}
	h := append(e.heap, ent)
	e.heap = h
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !entLess(ent, h[p]) {
			break
		}
		h[c] = h[p]
		c = p
	}
	h[c] = ent
}

func (e *eventLoop) pop() int32 {
	h := e.heap
	top := h[0].rank
	last := len(h) - 1
	ent := h[last]
	h = h[:last]
	e.heap = h
	if last == 0 {
		return top
	}
	p := 0
	for {
		c := 4*p + 1
		if c >= len(h) {
			break
		}
		// Pick the least of the up-to-four children; they share a cache line.
		m := c
		if c+1 < len(h) && entLess(h[c+1], h[m]) {
			m = c + 1
		}
		if c+2 < len(h) && entLess(h[c+2], h[m]) {
			m = c + 2
		}
		if c+3 < len(h) && entLess(h[c+3], h[m]) {
			m = c + 3
		}
		if !entLess(h[m], ent) {
			break
		}
		h[p] = h[m]
		p = m
	}
	h[p] = ent
	return top
}
