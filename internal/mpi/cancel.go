package mpi

import "sync/atomic"

// runStop coordinates tearing down an in-flight run. A run is cancelled
// (context cancellation, deadline, or the wall-clock deadlock timeout) by
// trigger, which raises the flag the drive loop checks before every event and
// every rank checks at each MPI call and blocking wait; a rank that finds it
// raised unwinds by panicking with the runStopped sentinel, which the
// engine's per-rank recover swallows. This is what lets a timed-out or
// cancelled Run return with zero leaked goroutines: the world is poisoned,
// not abandoned.
type runStop struct {
	flag atomic.Bool
}

// stopped reports whether the run has been cancelled.
func (s *runStop) stopped() bool { return s.flag.Load() }

// trigger cancels the run. Idempotent; safe from any goroutine (the run's
// watcher trips it).
func (s *runStop) trigger() { s.flag.Store(true) }

// reset re-arms a triggered stop for the next run on a pooled world. The
// engine pool calls it from the single goroutine that owns the world between
// runs.
func (s *runStop) reset() { s.flag.Store(false) }

// runStopped is the panic sentinel a rank unwinds with after its run was
// cancelled. The engine's recover treats it as orderly teardown, not a
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
