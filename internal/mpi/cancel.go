package mpi

import (
	"sync"
	"sync/atomic"
)

// runStop coordinates tearing down an in-flight run. A run is cancelled
// (context cancellation, deadline, or the wall-clock deadlock timeout) by
// trigger, which wakes every rank blocked in the transport or a collective
// rendezvous; the woken ranks unwind their goroutines by panicking with the
// runStopped sentinel, which Run's per-rank recover swallows. This is what
// lets a timed-out or cancelled Run return with zero leaked goroutines: the
// world is poisoned, not abandoned.
type runStop struct {
	flag atomic.Bool

	mu    sync.Mutex
	conds []*sync.Cond
}

func newRunStop() *runStop { return &runStop{} }

// register adds a condition variable to wake on trigger. Waiters must
// re-check stopped after every Wait.
func (s *runStop) register(c *sync.Cond) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.conds = append(s.conds, c)
	s.mu.Unlock()
}

// stopped reports whether the run has been cancelled. Safe on a nil receiver
// so transport code works in worlds without a stop (none today, but cheap).
func (s *runStop) stopped() bool { return s != nil && s.flag.Load() }

// trigger cancels the run: it raises the flag and broadcasts every registered
// condition variable (waking the goroutine runtime's mailbox and collective
// waiters). Each broadcast happens under the condition's lock, so a waiter
// that checked stopped just before parking is guaranteed to be woken.
// Idempotent.
func (s *runStop) trigger() {
	if s == nil || !s.flag.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	conds := append([]*sync.Cond(nil), s.conds...)
	s.mu.Unlock()
	for _, c := range conds {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}

// reset re-arms a triggered stop for the next run on a pooled world. It is
// only safe after the previous run has fully quiesced (every rank goroutine
// parked or unwound, Run returned): event-engine worlds register no condition
// variables, so dropping the conds slice loses nothing. The engine pool calls
// this from the single goroutine that owns the world between runs.
func (s *runStop) reset() {
	s.flag.Store(false)
	s.mu.Lock()
	s.conds = s.conds[:0]
	s.mu.Unlock()
}

// runStopped is the panic sentinel a rank goroutine unwinds with after its
// run was cancelled. Run's recover treats it as orderly teardown, not a
// user-code panic.
type runStopped struct{}

// checkStopped panics with the teardown sentinel if the run was cancelled.
// Called at every blocking wait's re-check and at every MPI entry point, so
// a cancelled run stops both blocked and still-computing ranks.
func (s *runStop) checkStopped() {
	if s.stopped() {
		panic(runStopped{})
	}
}
