package mpi

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// waitForGoroutines polls until the goroutine count drops back to at most
// base (plus a small slack for runtime helpers), or the deadline passes.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d now vs %d before the run", runtime.NumGoroutine(), base)
}

// foreverBody never completes and never deadlocks: every rank keeps making
// progress through collective rounds while rank 0 also floods rank 1 with
// sends nobody receives, so a cancelled world is torn down with both parked
// ranks and undelivered deposits pending. (A body whose ranks all block
// forever is no longer a useful cancellation fixture: the event engine
// proves the deadlock and returns before any cancel can land.)
func foreverBody(r *Rank) {
	w := r.World()
	for i := 0; ; i++ {
		if r.Rank() == 0 {
			r.Isend(w, 1, i, 8)
		}
		r.Allreduce(w, 8)
	}
}

// blockedBody deadlocks immediately: nobody sends to rank 0, and rank 0
// never joins the barrier.
func blockedBody(r *Rank) {
	if r.Rank() == 0 {
		r.Recv(r.World(), 1, 7, 8)
	} else {
		r.Barrier(r.World())
	}
}

// TestRunContextCancelUnblocksRanks cancels an event-engine run mid-flight —
// most ranks parked in a collective rendezvous, undelivered deposits queued —
// and asserts Run returns the context error with no rank goroutine left
// behind and every pending event drained.
func TestRunContextCancelUnblocksRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := Run(8, netmodel.Ideal(), foreverBody, WithContext(ctx))
	if err == nil {
		t.Fatal("Run succeeded, want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v does not wrap context.Canceled", err)
	}
	waitForGoroutines(t, base)
}

// TestEventEngineDeadlockDetectedInstantly pins the event engine's deadlock
// proof: a world whose ranks all block forever is reported the moment the
// run queue empties, with no wall-clock bound to wait out, and its
// goroutines are swept, not leaked.
func TestEventEngineDeadlockDetectedInstantly(t *testing.T) {
	base := runtime.NumGoroutine()
	start := time.Now()
	_, err := Run(8, netmodel.Ideal(), blockedBody)
	if err == nil || !strings.Contains(err.Error(), "deadlock detected") {
		t.Fatalf("Run error = %v, want instant deadlock detection", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlock took %v to report; the event engine should prove it instantly", elapsed)
	}
	waitForGoroutines(t, base)
}

// TestRunTimeoutDrainsGoroutines asserts a context deadline also unwinds
// every rank instead of leaking them. The body loops forever without
// deadlocking, so the event engine cannot finish it early with a proof.
func TestRunTimeoutDrainsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := Run(4, netmodel.Ideal(), foreverBody, WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error %v does not wrap context.DeadlineExceeded", err)
	}
	waitForGoroutines(t, base)
}

// goroutineStream is a stackless stream of one barrier that records, on its
// first Next, how many goroutines exist while the run is in flight.
type goroutineStream struct {
	during *int
	done   bool
}

func (s *goroutineStream) Next(_ *Rank, op *RankOp) bool {
	if s.done {
		return false
	}
	if *s.during < 0 {
		*s.during = runtime.NumGoroutine()
	}
	s.done = true
	*op = RankOp{Op: OpBarrier}
	return true
}

// TestUncancellableRunStartsNoGoroutine pins that a run whose context can
// never be cancelled — none given, or context.Background() — starts no
// goroutine: stackless ranks are cursors on Run's own goroutine, and only a
// cancellable context registers a stop callback.
func TestUncancellableRunStartsNoGoroutine(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithContext(context.Background())}} {
		during := -1
		before := runtime.NumGoroutine()
		_, err := RunStackless(4, netmodel.Ideal(), func(int) OpStream {
			return &goroutineStream{during: &during}
		}, opts...)
		if err != nil {
			t.Fatalf("RunStackless: %v", err)
		}
		if during > before {
			t.Errorf("%d options: %d goroutines during the run, %d before it", len(opts), during, before)
		}
	}
}

// cleanBody is a small body that exercises point-to-point and collective
// paths and completes; pooled-reuse tests run it to prove a world is still
// healthy after an aborted run.
func cleanBody(r *Rank) {
	r.Barrier(r.World())
	if r.Rank() == 0 {
		r.Send(r.World(), 1, 5, 64)
	} else if r.Rank() == 1 {
		r.Recv(r.World(), 0, 5, 64)
	}
	r.Allreduce(r.World(), 8)
}

// TestPooledWorldCancelThenReuse is the poison-safety proof for the world
// pool: a pooled run is cancelled, or its deadline passes, mid-flight (ranks
// parked in a collective, deposits queued, the stop latch tripped), and the
// very same world — it re-enters the pool on return — must then complete a
// clean run with results identical to a fresh world's, after which Close
// drains every persistent rank goroutine.
func TestPooledWorldCancelThenReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()

	want, err := Run(8, netmodel.Ideal(), cleanBody)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}

	for _, stop := range []struct {
		err   error
		start func() (context.Context, context.CancelFunc)
	}{
		{context.Canceled, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{context.DeadlineExceeded, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}},
	} {
		ctx, cancel := stop.start()
		_, err = Run(8, netmodel.Ideal(), foreverBody, WithEngine(eng), WithContext(ctx))
		cancel()
		if !errors.Is(err, stop.err) {
			t.Fatalf("pooled run error %v does not wrap %v", err, stop.err)
		}
		for pass := 1; pass <= 2; pass++ {
			got, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng))
			if err != nil {
				t.Fatalf("pooled run %d after %v: %v", pass, stop.err, err)
			}
			for r := range want.PerRankUS {
				if got.PerRankUS[r] != want.PerRankUS[r] {
					t.Errorf("pass %d rank %d clock %v after %v, want %v",
						pass, r, got.PerRankUS[r], stop.err, want.PerRankUS[r])
				}
			}
		}
	}

	eng.Close()
	waitForGoroutines(t, base)
}

// TestPooledWorldDeadlockThenReuse runs the same poison scrub for the event
// engine's instant deadlock proof and for a stackless run on the same pool:
// both abort paths must leave the world reusable for either representation.
func TestPooledWorldDeadlockThenReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()

	_, err := Run(8, netmodel.Ideal(), blockedBody, WithEngine(eng))
	if err == nil || !strings.Contains(err.Error(), "deadlock detected") {
		t.Fatalf("pooled run error = %v, want instant deadlock detection", err)
	}

	want, err := Run(8, netmodel.Ideal(), cleanBody)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	got, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng))
	if err != nil {
		t.Fatalf("pooled run after deadlock: %v", err)
	}
	for i := range want.PerRankUS {
		if got.PerRankUS[i] != want.PerRankUS[i] {
			t.Errorf("rank %d clock %v after deadlock, want %v", i, got.PerRankUS[i], want.PerRankUS[i])
		}
	}

	// A stackless run on the same pooled world: the deadlocked coroutine run
	// and the cursor run share every world structure except the rank
	// representation.
	res, err := RunStackless(8, netmodel.Ideal(), func(rank int) OpStream {
		return &sliceStream{ops: []RankOp{{Op: OpBarrier}, {Op: OpAllreduce, Size: 8}}}
	}, WithEngine(eng))
	if err != nil {
		t.Fatalf("stackless run on pooled world: %v", err)
	}
	if len(res.PerRankUS) != 8 {
		t.Fatalf("stackless result has %d ranks, want 8", len(res.PerRankUS))
	}

	eng.Close()
	waitForGoroutines(t, base)
}

// sliceStream feeds a fixed op slice to the stackless executor.
type sliceStream struct {
	ops []RankOp
	i   int
}

func (s *sliceStream) Next(_ *Rank, op *RankOp) bool {
	if s.i >= len(s.ops) {
		return false
	}
	*op = s.ops[s.i]
	s.i++
	return true
}

// TestRunContextUncancelledIsHarmless pins that merely passing a live context
// changes nothing about a successful run.
func TestRunContextUncancelledIsHarmless(t *testing.T) {
	ctx := context.Background()
	res, err := Run(4, netmodel.Ideal(), func(r *Rank) {
		r.Barrier(r.World())
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 5, 64)
		} else if r.Rank() == 1 {
			r.Recv(r.World(), 0, 5, 64)
		}
		r.Barrier(r.World())
	}, WithContext(ctx))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.PerRankUS) != 4 {
		t.Fatalf("PerRankUS has %d entries, want 4", len(res.PerRankUS))
	}
}

// TestFinishedRunIsNotReportedCancelled pins the outcome rule both body kinds
// share: a run whose every rank finished returns its result, whatever the
// context did meanwhile. The last rank to finish cancels the context as its
// final statement (it has already finalized, so no cancellation point is
// left on any rank); Run's stop callback may or may not have started by the
// time the run queue drains, and either way the run completed.
func TestFinishedRunIsNotReportedCancelled(t *testing.T) {
	const n = 4
	for _, eng := range []*Engine{nil, NewEngine()} {
		var opts []Option
		if eng != nil {
			opts = append(opts, WithEngine(eng))
		}
		for i := 0; i < 100; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			finished := 0 // one rank runs at a time
			res, err := Run(n, netmodel.Ideal(), func(r *Rank) {
				cleanBody(r)
				r.Finalize()
				if finished++; finished == n {
					cancel()
				}
			}, append(opts, WithContext(ctx))...)
			cancel()
			if err != nil {
				t.Fatalf("pooled=%v run %d: every rank finished, yet Run returned %v", eng != nil, i, err)
			}
			if len(res.PerRankUS) != n {
				t.Fatalf("result has %d ranks, want %d", len(res.PerRankUS), n)
			}
		}
		if eng != nil {
			eng.Close()
		}
	}
}

// TestPooledWorldPanicThenReuse: a rank body panics on a pooled world — its
// peers are left parked in a collective and are unwound — and the same world
// then serves clean runs whose clocks equal a cold world's bit for bit.
func TestPooledWorldPanicThenReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()

	_, err := Run(8, netmodel.Ideal(), func(r *Rank) {
		r.Barrier(r.World())
		if r.Rank() == 3 {
			panic("boom")
		}
		r.Allreduce(r.World(), 8)
	}, WithEngine(eng))
	if err == nil || !strings.Contains(err.Error(), "rank 3 panicked: boom") {
		t.Fatalf("pooled run error = %v, want rank 3's panic", err)
	}

	want, err := Run(8, netmodel.Ideal(), cleanBody)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	for pass := 1; pass <= 2; pass++ {
		got, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng))
		if err != nil {
			t.Fatalf("pooled run %d after panic: %v", pass, err)
		}
		for i := range want.PerRankUS {
			if got.PerRankUS[i] != want.PerRankUS[i] {
				t.Errorf("pass %d rank %d clock %v after panic, want %v",
					pass, i, got.PerRankUS[i], want.PerRankUS[i])
			}
		}
	}

	eng.Close()
	waitForGoroutines(t, base)
}

// TestCancelledBeforeStartLeavesNoGoroutines covers cancellation that lands
// before any rank has run: a context cancelled before Run is refused without
// building (or acquiring) a world, and one cancelled while the world is being
// set up — here from the tracer factory, after the coroutines of a pooled
// world already exist — finds ranks that have not started. Both leave the
// goroutine count where it was, on one-shot and pooled worlds.
func TestCancelledBeforeStartLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	if _, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("pooled warm-up run: %v", err)
	}
	for _, pooled := range []bool{false, true} {
		var opts []Option
		if pooled {
			opts = append(opts, WithEngine(eng))
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Run(8, netmodel.Ideal(), cleanBody, append(opts, WithContext(ctx))...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled=%v: pre-cancelled Run error %v does not wrap context.Canceled", pooled, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		_, err = Run(8, netmodel.Ideal(), foreverBody, append(opts, WithContext(ctx),
			WithTracer(func(int) Tracer {
				cancel()
				return nil
			}))...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled=%v: Run cancelled during setup returned %v", pooled, err)
		}
		if !pooled {
			waitForGoroutines(t, base+8) // only the pooled world's parked ranks remain
		}
	}
	eng.Close()
	waitForGoroutines(t, base)
}

// TestTeardownRunsApplicationDefers pins how a coroutine rank leaves a run
// that is torn down under it: by unwinding its own stack, so the
// application's deferred calls run — whether the rank was parked in a
// receive, parked in a collective or had not yet blocked when the world was
// poisoned, and whether a cancellation or a proven deadlock poisoned it.
func TestTeardownRunsApplicationDefers(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	for _, pooled := range []bool{false, true} {
		var opts []Option
		if pooled {
			opts = append(opts, WithEngine(eng))
		}
		var deferred [4]bool

		// Rank 0 parks in a receive nobody sends to and 1 in a barrier nobody
		// else joins; 2 and 3 keep exchanging messages, so the run neither
		// completes nor deadlocks.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		_, err := Run(4, netmodel.Ideal(), func(r *Rank) {
			defer func() { deferred[r.Rank()] = true }()
			switch w := r.World(); r.Rank() {
			case 0:
				r.Recv(w, 1, 7, 8)
			case 1:
				r.Barrier(w)
			default:
				for i := 0; ; i++ {
					r.Sendrecv(w, 5-r.Rank(), i, 8, 5-r.Rank(), i, 8)
				}
			}
		}, append(opts, WithContext(ctx))...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled=%v: Run error %v does not wrap context.Canceled", pooled, err)
		}
		if deferred != [4]bool{true, true, true, true} {
			t.Errorf("pooled=%v: defers run after cancellation: %v, want all", pooled, deferred)
		}

		deferred = [4]bool{}
		_, err = Run(4, netmodel.Ideal(), func(r *Rank) {
			defer func() { deferred[r.Rank()] = true }()
			blockedBody(r)
		}, opts...)
		if err == nil || !strings.Contains(err.Error(), "deadlock detected") {
			t.Fatalf("pooled=%v: Run error = %v, want deadlock detection", pooled, err)
		}
		if deferred != [4]bool{true, true, true, true} {
			t.Errorf("pooled=%v: defers run after deadlock: %v, want all", pooled, deferred)
		}
	}
	eng.Close()
	waitForGoroutines(t, base)
}
