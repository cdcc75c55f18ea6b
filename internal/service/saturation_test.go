package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// hugeTraceRequest returns an upload whose generated benchmark loops a
// 2-rank barrier ~10^8 times: admission, generation and rendering are
// instant, but the prediction run is effectively endless — until its
// context is cancelled, which tears the simulated world down. site
// differentiates the trace bytes so each request gets its own cache key.
func hugeTraceRequest(site int) *Request {
	return &Request{Trace: fmt.Sprintf("scalatrace-go 1\n"+
		"nprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n"+
		"loop 100000000 1\n"+
		"rsd op=Barrier site=%d ranks=0:1 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n", site)}
}

// waitState polls until the job reaches state (any terminal state ends the
// wait; reaching a different terminal state fails the test).
func waitState(t *testing.T, cl *Client, id, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == state {
			return
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
}

// TestSaturationBackpressure drives the daemon past capacity: one worker,
// one queue slot, three endless jobs. The third is refused with 429 and a
// Retry-After hint; cancelling the first two frees the capacity and the
// daemon serves normal work again.
func TestSaturationBackpressure(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 1,
		JobTimeout: time.Hour, RetryAfter: 2 * time.Second})

	a, err := cl.Submit(context.Background(), hugeTraceRequest(1))
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	// Wait until the worker has dequeued A so the queue slot is free for B
	// deterministically.
	waitState(t, cl, a.ID, StateRunning)

	b, err := cl.Submit(context.Background(), hugeTraceRequest(2))
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	if st, _ := cl.Status(context.Background(), b.ID); st.State != StateQueued {
		t.Fatalf("B state %s, want queued", st.State)
	}

	_, err = cl.Submit(context.Background(), hugeTraceRequest(3))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("third submission: got %v, want a 429 BusyError", err)
	}
	if busy.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After %v, want the configured 2s", busy.RetryAfter)
	}

	// Cancel the runner; the queued job is dequeued next and cancelled too.
	if _, err := cl.Cancel(context.Background(), a.ID); err != nil {
		t.Fatalf("Cancel A: %v", err)
	}
	waitState(t, cl, a.ID, StateCanceled)
	if _, err := cl.Cancel(context.Background(), b.ID); err != nil {
		t.Fatalf("Cancel B: %v", err)
	}
	waitState(t, cl, b.ID, StateCanceled)

	// Capacity restored: real work completes.
	res, err := cl.Generate(context.Background(), &Request{App: "pingpong", N: 2, Class: "S"})
	if err != nil {
		t.Fatalf("post-saturation Generate: %v", err)
	}
	if res.Source == "" {
		t.Fatal("post-saturation result is empty")
	}
}

// TestQueueWaitDoesNotConsumeTimeout: the JobTimeout budget starts when a
// worker dequeues the job, not at submission — a quick job stuck behind a
// slow one for longer than the whole budget still completes, while the slow
// job itself is killed by its own (dequeue-anchored) deadline.
func TestQueueWaitDoesNotConsumeTimeout(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 2,
		JobTimeout: 500 * time.Millisecond})

	slow, err := cl.Submit(context.Background(), hugeTraceRequest(201))
	if err != nil {
		t.Fatalf("Submit slow: %v", err)
	}
	waitState(t, cl, slow.ID, StateRunning)

	quick, err := cl.Submit(context.Background(), quickTraceRequest(202))
	if err != nil {
		t.Fatalf("Submit quick: %v", err)
	}

	// The slow job burns its entire budget while the quick one waits in the
	// queue; under submission-anchored timeouts the quick job would be
	// dequeued with its deadline already spent.
	waitState(t, cl, slow.ID, StateFailed)
	st, _ := cl.Status(context.Background(), slow.ID)
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("slow job error %q, want its own deadline exceeded", st.Error)
	}
	if _, err := cl.Wait(context.Background(), quick.ID); err != nil {
		t.Fatalf("quick job failed after queue wait exceeding JobTimeout: %v", err)
	}
}

// TestGracefulDrainLosesNothing: Shutdown refuses new work but every
// accepted job runs to completion and its result stays retrievable.
func TestGracefulDrainLosesNothing(t *testing.T) {
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	a, err := cl.Submit(context.Background(), &Request{App: "pingpong", N: 2, Class: "S"})
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	b, err := cl.Submit(context.Background(), &Request{App: "ring", N: 4, Class: "S"})
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for _, id := range []string{a.ID, b.ID} {
		st, err := cl.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("Status(%s) after drain: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %s after graceful drain, want done (error %q)",
				id, st.State, st.Error)
		}
		if _, err := cl.Wait(context.Background(), id); err != nil {
			t.Fatalf("result for %s lost after drain: %v", id, err)
		}
	}

	// The drained daemon refuses new submissions with 503.
	if _, err := cl.Submit(context.Background(), &Request{App: "ring", N: 8, Class: "S"}); err == nil {
		t.Fatal("submission accepted after shutdown")
	} else if !strings.Contains(err.Error(), "503") {
		t.Fatalf("post-shutdown submission: %v, want 503", err)
	}
}

// TestShutdownDeadlineCancelsStragglers: when the drain window expires, the
// remaining jobs' worlds are torn down and no goroutine survives the daemon.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 1, JobTimeout: time.Hour})

	st, err := cl.Submit(context.Background(), hugeTraceRequest(99))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, cl, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v, want deadline exceeded", err)
	}
	waitState(t, cl, st.ID, StateCanceled)

	// Every rank goroutine and worker must have unwound.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after forced shutdown",
		before, runtime.NumGoroutine())
}
