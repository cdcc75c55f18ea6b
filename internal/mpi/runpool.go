package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the multi-P throughput layer: a work-stealing pool of worker
// goroutines ("worker Ps") that drive whole simulated worlds to completion.
// A single world is deliberately single-threaded — the discrete-event
// engine's determinism argument (DESIGN.md §11) rests on one driver stepping
// one rank at a time per world — so the only parallelism this package offers is across worlds:
// N workers, each running one world at a time, pulling work from a shared
// injection queue and per-worker deques with stealing. Aggregate throughput
// (worlds/sec, the unit benchd and experiment batches are measured in) then
// scales with GOMAXPROCS while every individual world stays bit-identical
// to a serial run.
//
// Scheduling policy:
//
//   - External submissions (Submit) enter the shared injection queue, FIFO.
//   - Batch submissions (SubmitBatch) are scattered round-robin across the
//     per-worker deques, pre-balancing bulk work without funneling it
//     through one queue.
//   - A worker prefers its own deque (newest first — LIFO keeps the
//     just-scattered batch entries hot), then the injection queue (oldest
//     first — submission fairness), then steals from the other workers'
//     deques (oldest first — the classic thief/owner split: the owner works
//     the hot end, thieves take the cold end).
//   - A waiter (RunTicket.Wait) helps: before blocking it executes pending
//     tasks itself, which both adds a P to the pool while it would otherwise
//     idle and makes nested submission (a pooled task that submits a batch
//     and waits for it) deadlock-free — task waits form a DAG, every
//     executable task eventually runs, so every Wait terminates.
//
// None of this affects simulation results: tasks are whole worlds, worlds
// share nothing but the (lock-sharded) Engine free lists, and callers store
// outcomes in index-addressed slots. The pooled-determinism suite pins
// bit-identical results at GOMAXPROCS 1, 4 and 8.

// RunTicket is a handle to one submitted task.
type RunTicket struct {
	p        *RunPool
	fn       func()
	done     chan struct{}
	panicked any
}

// RunPool is a work-stealing pool of workers that execute submitted tasks —
// in this repository, closures that each drive one simulated world (or one
// experiment configuration wrapping a few worlds) to completion.
type RunPool struct {
	workers []rpWorker
	inject  rpQueue

	// parkMu/parkCond implement worker parking. pending counts queued (not
	// yet claimed) tasks; it is incremented after a task becomes visible in
	// some queue and decremented by the claiming pop, so a worker that
	// observes pending == 0 under parkMu can sleep without missing work:
	// any later submission signals under the same mutex.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	pending  atomic.Int64
	closed   bool

	rr atomic.Uint32 // scatter rotation for SubmitBatch
	wg sync.WaitGroup
}

// rpWorker is one worker's deque. The owner pops newest-first from the tail;
// thieves (and helpers) steal oldest-first from the head.
type rpWorker struct {
	mu sync.Mutex
	dq []*RunTicket
}

// rpQueue is the shared injection queue, FIFO.
type rpQueue struct {
	mu   sync.Mutex
	head int
	q    []*RunTicket
}

// NewRunPool starts a pool with the given number of workers; k <= 0 uses
// GOMAXPROCS at call time.
func NewRunPool(k int) *RunPool {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	p := &RunPool{workers: make([]rpWorker, k)}
	p.parkCond = sync.NewCond(&p.parkMu)
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		go p.workerLoop(i)
	}
	return p
}

// Workers reports the pool's worker count.
func (p *RunPool) Workers() int { return len(p.workers) }

// Submit enqueues fn on the shared injection queue and returns its ticket.
// After Close, fn runs synchronously on the caller (the pool remains usable,
// mirroring Engine.Close's drain-not-kill contract).
func (p *RunPool) Submit(fn func()) *RunTicket {
	t := &RunTicket{p: p, fn: fn, done: make(chan struct{})}
	p.parkMu.Lock()
	if p.closed {
		p.parkMu.Unlock()
		p.exec(t)
		return t
	}
	p.inject.mu.Lock()
	p.inject.q = append(p.inject.q, t)
	p.inject.mu.Unlock()
	p.pending.Add(1)
	p.parkCond.Signal()
	p.parkMu.Unlock()
	return t
}

// SubmitBatch enqueues every fn, scattered round-robin across the per-worker
// deques, and returns their tickets in order. Idle workers steal across
// deques, so an unbalanced batch self-corrects.
func (p *RunPool) SubmitBatch(fns []func()) []*RunTicket {
	ts := make([]*RunTicket, len(fns))
	for i, fn := range fns {
		ts[i] = &RunTicket{p: p, fn: fn, done: make(chan struct{})}
	}
	p.parkMu.Lock()
	if p.closed {
		p.parkMu.Unlock()
		for _, t := range ts {
			p.exec(t)
		}
		return ts
	}
	start := int(p.rr.Add(1) - 1)
	for i, t := range ts {
		w := &p.workers[(start+i)%len(p.workers)]
		w.mu.Lock()
		w.dq = append(w.dq, t)
		w.mu.Unlock()
	}
	p.pending.Add(int64(len(ts)))
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
	return ts
}

// Run submits fn and waits for it, helping with other pending tasks while it
// waits. A panic inside fn re-panics here, on the caller.
func (p *RunPool) Run(fn func()) {
	p.Submit(fn).Wait()
}

// Wait blocks until the task completes, executing other pending pool tasks
// while it waits (it may execute its own task). A panic inside the task is
// re-raised here, on the waiter.
func (t *RunTicket) Wait() {
	for {
		select {
		case <-t.done:
			t.finish()
			return
		default:
		}
		nt := t.p.findTask(-1)
		if nt == nil {
			break
		}
		t.p.exec(nt)
	}
	// Nothing left to help with: the task is claimed and running on some
	// worker (it was queued before Wait, and findTask scans every queue
	// under blocking locks), so this receive cannot block forever.
	<-t.done
	t.finish()
}

func (t *RunTicket) finish() {
	if t.panicked != nil {
		panic(t.panicked)
	}
}

// WaitAll waits for every ticket in order.
func WaitAll(ts []*RunTicket) {
	for _, t := range ts {
		t.Wait()
	}
}

// Close wakes the workers, lets them drain every queued task, and returns
// after they exit. The pool remains usable: later Submits run their task
// synchronously on the submitter.
func (p *RunPool) Close() {
	p.parkMu.Lock()
	if p.closed {
		p.parkMu.Unlock()
		return
	}
	p.closed = true
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
	p.wg.Wait()
}

func (p *RunPool) workerLoop(id int) {
	defer p.wg.Done()
	for {
		if t := p.findTask(id); t != nil {
			p.exec(t)
			continue
		}
		p.parkMu.Lock()
		if p.pending.Load() == 0 {
			// Exit only with nothing queued: a task submitted after the
			// findTask above and before Close must still be drained.
			if p.closed {
				p.parkMu.Unlock()
				return
			}
			p.parkCond.Wait()
		}
		p.parkMu.Unlock()
	}
}

// findTask claims one pending task: the caller's own deque first (self < 0
// for non-workers), then the injection queue, then a stealing sweep over the
// other workers' deques. Claiming decrements pending inside the queue's
// critical section, so pending never undercounts a still-queued task.
func (p *RunPool) findTask(self int) *RunTicket {
	if self >= 0 {
		if t := p.workers[self].popTail(&p.pending); t != nil {
			return t
		}
	}
	if t := p.inject.pop(&p.pending); t != nil {
		return t
	}
	n := len(p.workers)
	for i := 1; i <= n; i++ {
		v := (self + i) % n
		if v < 0 {
			v += n
		}
		if v == self {
			continue
		}
		if t := p.workers[v].stealHead(&p.pending); t != nil {
			ctrRunPoolSteals.Inc()
			return t
		}
	}
	return nil
}

// exec runs one claimed task, capturing a panic on the ticket for the waiter
// to re-raise, and closes the ticket.
func (p *RunPool) exec(t *RunTicket) {
	defer func() {
		t.panicked = recover()
		close(t.done)
	}()
	t.fn()
}

// popTail removes the newest entry (owner side, LIFO).
func (w *rpWorker) popTail(pending *atomic.Int64) *RunTicket {
	w.mu.Lock()
	n := len(w.dq)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.dq[n-1]
	w.dq[n-1] = nil
	w.dq = w.dq[:n-1]
	pending.Add(-1)
	w.mu.Unlock()
	return t
}

// stealHead removes the oldest entry (thief side, FIFO).
func (w *rpWorker) stealHead(pending *atomic.Int64) *RunTicket {
	w.mu.Lock()
	if len(w.dq) == 0 {
		w.mu.Unlock()
		return nil
	}
	t := w.dq[0]
	copy(w.dq, w.dq[1:])
	w.dq[len(w.dq)-1] = nil
	w.dq = w.dq[:len(w.dq)-1]
	pending.Add(-1)
	w.mu.Unlock()
	return t
}

// pop removes the oldest injected entry, compacting the backing array once
// the consumed prefix dominates it.
func (q *rpQueue) pop(pending *atomic.Int64) *RunTicket {
	q.mu.Lock()
	if q.head == len(q.q) {
		q.mu.Unlock()
		return nil
	}
	t := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.q) {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q = q.q[:n]
		q.head = 0
	}
	pending.Add(-1)
	q.mu.Unlock()
	return t
}
