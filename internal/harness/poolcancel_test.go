package harness

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// TestPoolBackpressure pins Submit's non-blocking contract: with one busy
// worker and a one-slot queue, the third submission is rejected with
// ErrQueueFull, and Drain still runs every accepted job.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	var ran atomic.Int32
	block := func(context.Context) { <-release; ran.Add(1) }
	quick := func(context.Context) { ran.Add(1) }

	if err := p.Submit(nil, block); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	// The worker may not have dequeued the first job yet; wait until it has
	// so the single queue slot is genuinely free.
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueLen() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(nil, quick); err != nil {
		t.Fatalf("second Submit (queued): %v", err)
	}
	if err := p.Submit(nil, quick); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit = %v, want ErrQueueFull", err)
	}
	close(release)
	p.Drain()
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d accepted jobs, want 2", got)
	}
	if err := p.Submit(nil, quick); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrPoolClosed", err)
	}
}

// TestPoolJobCancellationStopsPipelineWork submits a job running a simulated
// world that can only end by cancellation, cancels its context mid-run, and
// asserts (a) the job observes the cancellation error promptly and (b) the
// world's rank goroutines are torn down rather than leaked. This is the
// benchd timeout path end to end: service job ctx -> pool -> mpi.WithContext.
func TestPoolJobCancellationStopsPipelineWork(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(1, 0)
	ctx, cancel := context.WithCancel(context.Background())

	errCh := make(chan error, 1)
	submitted := false
	for tries := 0; tries < 100 && !submitted; tries++ {
		err := p.Submit(ctx, func(ctx context.Context) {
			// A deliberately unbounded workload: the ranks cycle through
			// collective rounds forever, so only cancellation can end the
			// run. (A world that simply deadlocks no longer works as a
			// fixture here: the event engine proves the deadlock and returns
			// before the cancel lands.)
			_, err := mpi.Run(4, netmodel.Ideal(), func(r *mpi.Rank) {
				for {
					r.Barrier(r.World())
					r.Allreduce(r.World(), 8)
				}
			}, mpi.WithContext(ctx))
			errCh <- err
		})
		if err == nil {
			submitted = true
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if !submitted {
		t.Fatal("could not submit job to idle pool")
	}

	time.Sleep(50 * time.Millisecond) // let the run block
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("job error %v does not wrap context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not return within 5s")
	}
	p.Drain()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
}

// TestTraceAppContextCancelled pins the harness pass-through: an
// already-cancelled context stops a trace job before (or as soon as) the
// simulated run starts.
func TestTraceAppContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TraceAppContext(ctx, "ring", apps.NewConfig(8, apps.ClassS), netmodel.Ideal())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TraceAppContext error %v does not wrap context.Canceled", err)
	}
}

// TestPoolJobPanicContained pins that a panicking job neither kills its
// worker nor poisons later jobs.
func TestPoolJobPanicContained(t *testing.T) {
	p := NewPool(1, 4)
	var ran atomic.Int32
	if err := p.Submit(nil, func(context.Context) { panic("boom") }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := p.Submit(nil, func(context.Context) { ran.Add(1) }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	p.Drain()
	if ran.Load() != 1 {
		t.Fatal("job after panic did not run")
	}
}
