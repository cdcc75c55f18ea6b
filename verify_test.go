package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// TestVerifySuite is the formal counterpart of the engine golden digests: for
// every application kernel at <=16 ranks, the model checker must find no
// deadlock, and wherever the kernel uses wildcard receives the Algorithm 2
// assignment must be admitted by the MP-net with the resolved trace proven
// deadlock-free by exhaustive (deterministic) exploration. The full
// wildcard state space is explored under a bound; kernels without
// wildcards are always exhaustive.
func TestVerifySuite(t *testing.T) {
	// LU posts thousands of wildcard receives at 16 ranks; the bound keeps
	// its (non-exhaustive) full-space sweep short while the resolved-trace
	// proof stays exact.
	opts := &mpnet.Options{MaxStates: 1 << 15}
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			rep, err := harness.Verify(name, apps.NewConfig(n, apps.ClassS), netmodel.BlueGeneL(), opts)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.Verdict == nil {
				t.Fatalf("no verdict in report")
			}
			if cx := rep.Verdict.Counterexample; cx != nil {
				t.Fatalf("checker found a deadlock:\n%s", rep)
			}
			if rep.Wildcards == 0 {
				if !rep.DeadlockFree() {
					t.Fatalf("deterministic kernel not proven deadlock-free:\n%s", rep)
				}
				return
			}
			if rep.ResolverDeadlock != "" {
				t.Fatalf("resolver reported a deadlock on a completable trace: %s", rep.ResolverDeadlock)
			}
			if !rep.ResolverAdmitted {
				t.Fatalf("resolver assignment rejected by the net: %v", rep.ResolverBlocked)
			}
			rv := rep.ResolvedVerdict
			if rv == nil || !rv.DeadlockFree || !rv.Exhaustive {
				t.Fatalf("resolved trace not exhaustively proven deadlock-free:\n%s", rep)
			}
		})
	}
}

// TestVerifyCounterexampleReplay seeds a deadlocking variant — the paper's
// Figure 5 shape, where resolving rank 1's wildcard to rank 0 consumes the
// message its next concrete receive needs — and requires the checker to
// produce a counterexample that the discrete-event engine confirms as a
// real deadlock when replayed.
func TestVerifyCounterexampleReplay(t *testing.T) {
	col := trace.NewCollector(3)
	_, err := mpi.Run(3, netmodel.BlueGeneL(), figure5Body, mpi.WithTracer(col.TracerFor))
	if err != nil {
		t.Fatalf("collect: %v", err)
	}

	rep, err := mpnet.VerifyWithReplay(col.Trace(), nil, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.DeadlockFree() {
		t.Fatalf("seeded deadlock not found:\n%s", rep)
	}
	cx := rep.Verdict.Counterexample
	if cx == nil {
		t.Fatalf("no counterexample: %+v", rep.Verdict)
	}
	if len(cx.Choices) != 1 || cx.Choices[0].Rank != 1 || cx.Choices[0].Source != 0 {
		t.Fatalf("counterexample should pin rank 1's wildcard to source 0: %+v", cx.Choices)
	}
	if !rep.ReplayConfirmed {
		t.Fatalf("engine did not confirm the deadlock: %s", rep.ReplayError)
	}
	// Algorithm 2's sufficient condition detects this one too; exhaustive
	// checking and the paper's resolver must agree here.
	if rep.ResolverDeadlock == "" {
		t.Fatalf("resolver missed the deadlock the checker proved")
	}
}

// figure5Body is the paper's Figure 5 shape on 3 ranks: rank 1's wildcard
// receive may take rank 0's message, which its next concrete receive needs.
func figure5Body(r *mpi.Rank) {
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
}
