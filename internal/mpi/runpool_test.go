package mpi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// TestRunPoolSubmitAndBatch pins the basic contract: every submitted task
// runs exactly once, results land in index-addressed slots, and WaitAll
// returns only after all of them finished.
func TestRunPoolSubmitAndBatch(t *testing.T) {
	p := NewRunPool(4)
	defer p.Close()

	const n = 200
	var ran [n]atomic.Int32
	fns := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		fns[i] = func() { ran[i].Add(1) }
	}
	half := n / 2
	ts := p.SubmitBatch(fns[:half])
	for _, fn := range fns[half:] {
		ts = append(ts, p.Submit(fn))
	}
	WaitAll(ts)
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, c)
		}
	}
}

// TestRunPoolNestedSubmit pins the helping-wait guarantee: a pooled task may
// itself submit a batch and wait for it, even when the batch is larger than
// the worker set, because waiters execute pending tasks instead of parking.
func TestRunPoolNestedSubmit(t *testing.T) {
	p := NewRunPool(2)
	defer p.Close()

	var leaves atomic.Int32
	outer := make([]func(), 4)
	for i := range outer {
		outer[i] = func() {
			inner := make([]func(), 8)
			for j := range inner {
				inner[j] = func() { leaves.Add(1) }
			}
			WaitAll(p.SubmitBatch(inner))
		}
	}
	WaitAll(p.SubmitBatch(outer))
	if c := leaves.Load(); c != 32 {
		t.Fatalf("leaf tasks ran %d times, want 32", c)
	}
}

// TestRunPoolPanicPropagates pins that a panic inside a task surfaces on the
// waiter, not on the worker (which must survive to serve later tasks).
func TestRunPoolPanicPropagates(t *testing.T) {
	p := NewRunPool(2)
	defer p.Close()

	tk := p.Submit(func() { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		tk.Wait()
	}()
	// The worker that executed the panicking task is still alive.
	var ok atomic.Bool
	p.Run(func() { ok.Store(true) })
	if !ok.Load() {
		t.Fatal("pool did not run a task after a panic")
	}
}

// TestRunPoolCloseRemainsUsable pins the drain-not-kill contract shared with
// Engine.Close: Close waits for queued work, and later submissions execute
// synchronously on the submitter instead of erroring.
func TestRunPoolCloseRemainsUsable(t *testing.T) {
	p := NewRunPool(2)
	var before atomic.Int32
	ts := make([]*RunTicket, 16)
	for i := range ts {
		ts[i] = p.Submit(func() { before.Add(1) })
	}
	p.Close()
	if c := before.Load(); c != 16 {
		t.Fatalf("Close returned with %d/16 queued tasks done", c)
	}
	ran := false
	p.Run(func() { ran = true }) // inline execution after Close
	if !ran {
		t.Fatal("post-Close Run did not execute the task")
	}
}

// TestRunPoolCloseDrainsTaskQueuedBehindIdleWorker pins the interleaving
// behind the drain half of that contract: a worker finds every queue empty,
// and before it takes parkMu a Submit and then Close go through. The test
// holds parkMu across the worker's empty scan and plays Submit's and Close's
// critical sections itself, so the worker's next observation is "closed, one
// task pending" — it must run the task, not exit.
func TestRunPoolCloseDrainsTaskQueuedBehindIdleWorker(t *testing.T) {
	p := &RunPool{workers: make([]rpWorker, 1)}
	p.parkCond = sync.NewCond(&p.parkMu)
	p.wg.Add(1)
	p.parkMu.Lock()
	go p.workerLoop(0)
	time.Sleep(20 * time.Millisecond) // the worker scans, then blocks on parkMu

	ran := false
	tk := &RunTicket{p: p, fn: func() { ran = true }, done: make(chan struct{})}
	p.inject.mu.Lock()
	p.inject.q = append(p.inject.q, tk)
	p.inject.mu.Unlock()
	p.pending.Add(1)
	p.closed = true
	p.parkMu.Unlock()

	p.wg.Wait()
	if !ran {
		t.Fatal("worker exited on closed with a task still queued")
	}
}

// TestRunPoolDrivesWorlds runs many pooled simulated worlds concurrently
// through one shared Engine and checks every result — the exact composition
// benchd and the harness use.
func TestRunPoolDrivesWorlds(t *testing.T) {
	p := NewRunPool(0)
	defer p.Close()
	eng := NewEngine()
	defer eng.Close()

	const n = 32
	results := make([]*Result, n)
	errs := make([]error, n)
	fns := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		size := 4 << (i % 3) // mixed world sizes: 4, 8, 16 ranks
		fns[i] = func() {
			results[i], errs[i] = Run(size, netmodel.Ideal(), cleanBody, WithEngine(eng))
		}
	}
	WaitAll(p.SubmitBatch(fns))
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("pooled world %d: %v", i, errs[i])
		}
		if want := 4 << (i % 3); len(results[i].PerRankUS) != want {
			t.Fatalf("pooled world %d: %d ranks, want %d", i, len(results[i].PerRankUS), want)
		}
	}
}
