package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// deadlockTrace collects the paper's Figure 5 shape: rank 1 posts a
// wildcard receive then a concrete receive from rank 0, while ranks 0 and
// 2 both send to it. The app-observed schedule completes (the wildcard
// matches rank 2), but resolving the wildcard to rank 0 deadlocks — the
// case the checker must find and the replay must confirm.
func deadlockTrace(t *testing.T) string {
	t.Helper()
	col := trace.NewCollector(3)
	_, err := mpi.Run(3, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		switch r.Rank() {
		case 0:
			r.Compute(100)
			r.Send(r.World(), 1, 0, 64)
		case 2:
			r.Send(r.World(), 1, 0, 64)
		}
		r.Barrier(r.World())
		if r.Rank() == 1 {
			r.Recv(r.World(), mpi.AnySource, 0, 64)
			r.Recv(r.World(), 0, 0, 64)
		}
	}, mpi.WithTracer(col.TracerFor))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.String()
}

// TestVerifyEndpointDeadlockFree: POST /v1/verify on a suite app returns
// the generation result plus an exhaustive deadlock-freedom verdict.
func TestVerifyEndpointDeadlockFree(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	res, err := cl.Verify(context.Background(), &Request{App: "ring", N: 4, Class: "S"})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Verify == nil {
		t.Fatalf("verify result carries no report")
	}
	rep := res.Verify
	if !rep.DeadlockFree() || rep.Verdict == nil || !rep.Verdict.Exhaustive {
		t.Fatalf("ring should verify deadlock-free exhaustively: %+v", rep.Verdict)
	}
	if rep.Ranks != 4 || rep.Events == 0 {
		t.Fatalf("report stats: ranks=%d events=%d", rep.Ranks, rep.Events)
	}
	if res.Source == "" || len(res.PerRankUS) != 4 {
		t.Fatalf("verify result must still carry the generated artifact")
	}
}

// TestVerifyEndpointFindsDeadlock: an uploaded trace whose wildcard
// resolution can deadlock yields a counterexample, the resolver's own
// deadlock report, and a concrete replay confirmation.
func TestVerifyEndpointFindsDeadlock(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	res, err := cl.Verify(context.Background(), &Request{Trace: deadlockTrace(t)})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rep := res.Verify
	if rep == nil {
		t.Fatalf("verify result carries no report")
	}
	if rep.DeadlockFree() {
		t.Fatalf("figure-5 trace verified deadlock-free")
	}
	if rep.Verdict == nil || rep.Verdict.Counterexample == nil {
		t.Fatalf("no counterexample in verdict: %+v", rep.Verdict)
	}
	if rep.ResolverDeadlock == "" {
		t.Fatalf("resolver should also report the deadlock (Algorithm 2 detects this one)")
	}
	if !rep.ReplayConfirmed {
		t.Fatalf("counterexample not confirmed by replay: %s", rep.ReplayError)
	}
}

// TestVerifyCached: identical verification requests hit the
// content-addressed cache, and the verify bit is part of the key — a
// plain generate for the same app does not alias the verified entry.
func TestVerifyCached(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := &Request{App: "pingpong", N: 2, Class: "S"}

	plain, err := cl.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if plain.Verify != nil {
		t.Fatalf("plain generate carries a verify report")
	}

	runsBefore := ctrPipelineRuns.Value()
	first, err := cl.Verify(context.Background(), req)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if first.Verify == nil {
		t.Fatalf("verify result carries no report")
	}
	if first.Key == plain.Key {
		t.Fatalf("verify and generate share a cache key")
	}
	if got := ctrPipelineRuns.Value(); got != runsBefore+1 {
		t.Fatalf("first verify must run the pipeline (runs %d -> %d)", runsBefore, got)
	}

	second, err := cl.Verify(context.Background(), req)
	if err != nil {
		t.Fatalf("Verify again: %v", err)
	}
	if got := ctrPipelineRuns.Value(); got != runsBefore+1 {
		t.Fatalf("repeat verify re-ran the pipeline (runs %d -> %d)", runsBefore+1, got)
	}
	if second.Key != first.Key || second.Verify == nil ||
		second.Verify.Verdict.StatesExplored != first.Verify.Verdict.StatesExplored {
		t.Fatalf("cached verify report differs from computed one")
	}
}

// TestCancelStopsVerifyExploration: cancelling a verify job reaches into
// the model checker. LU at 16 ranks posts 9,600 wildcard receives, so its
// exploration runs to the default 2^20-state bound — seconds of work; the
// job is cancelled once the checker has demonstrably started counting
// states, must land as canceled having explored only part of that bound,
// and the single worker must move on to the job queued behind it.
func TestCancelStopsVerifyExploration(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Hour})
	ctx := context.Background()
	explored := telemetry.NewCounter("mpnet.states_explored")
	before := explored.Value()

	job, err := cl.Submit(ctx, &Request{App: "lu", N: 16, Class: "S", Verify: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	next, err := cl.Submit(ctx, &Request{App: "pingpong", N: 2, Class: "S"})
	if err != nil {
		t.Fatalf("Submit next: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); explored.Value() == before; time.Sleep(time.Millisecond) {
		if st, err := cl.Status(ctx, job.ID); err != nil || st.State == StateDone || st.State == StateFailed {
			t.Fatalf("verify job ended before exploring a state: %+v, %v", st, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("checker never started")
		}
	}
	if _, err := cl.Cancel(ctx, job.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitState(t, cl, job.ID, StateCanceled)
	if n := explored.Value() - before; n >= mpnet.DefaultMaxStates {
		t.Fatalf("cancelled job explored %d states: the checker ran to its bound", n)
	}
	if _, err := cl.Wait(ctx, next.ID); err != nil {
		t.Fatalf("job queued behind the cancelled one: %v", err)
	}
}

// TestMethodNotAllowed pins the mux's wrong-method behavior for every
// /v1/* route: 405 with an Allow header listing the methods that are
// registered, per RFC 9110 — not a misleading 404.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cases := []struct {
		method string
		path   string
		allow  []string // methods the Allow header must mention
	}{
		{http.MethodDelete, "/v1/jobs", []string{"GET", "POST"}},
		{http.MethodPut, "/v1/jobs", []string{"GET", "POST"}},
		{http.MethodPost, "/v1/jobs/j-000001", []string{"GET", "DELETE"}},
		{http.MethodPost, "/v1/jobs/j-000001/result", []string{"GET"}},
		{http.MethodPost, "/v1/jobs/j-000001/source", []string{"GET"}},
		{http.MethodPost, "/v1/jobs/j-000001/profile", []string{"GET"}},
		{http.MethodGet, "/v1/generate", []string{"POST"}},
		{http.MethodDelete, "/v1/generate", []string{"POST"}},
		{http.MethodGet, "/v1/verify", []string{"POST"}},
		{http.MethodPut, "/v1/verify", []string{"POST"}},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		allow := resp.Header.Get("Allow")
		for _, m := range tc.allow {
			if !strings.Contains(allow, m) {
				t.Errorf("%s %s: Allow %q missing %s", tc.method, tc.path, allow, m)
			}
		}
	}
}
