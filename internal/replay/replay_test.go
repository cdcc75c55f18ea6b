package replay

import (
	"math"

	"repro/internal/align"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

func collect(t *testing.T, n int, m *netmodel.Model, body func(*mpi.Rank)) (*trace.Trace, *mpi.Result) {
	t.Helper()
	col := trace.NewCollector(n)
	res, err := mpi.Run(n, m, body, mpi.WithTracer(col.TracerFor))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace(), res
}

func stencilBody(iters int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		for i := 0; i < iters; i++ {
			r.Compute(120)
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 4096)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 4096)
			r.Waitall(rq, sq)
			r.Allreduce(c, 16)
		}
		r.Barrier(c)
	}
}

func TestReplayReproducesProfile(t *testing.T) {
	n := 8
	m := netmodel.BlueGeneL()
	tr, _ := collect(t, n, m, stencilBody(30))

	orig := mpip.NewProfile()
	if _, err := mpi.Run(n, m, stencilBody(30), mpi.WithTracer(orig.TracerFor)); err != nil {
		t.Fatal(err)
	}
	replayed := mpip.NewProfile()
	if _, err := Replay(tr, m, mpi.WithTracer(replayed.TracerFor)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if diffs := mpip.Diff(orig, replayed); !diffs.Match() {
		t.Fatalf("replayed profile differs: %v", diffs)
	}
}

func TestReplayTimingMatchesOriginal(t *testing.T) {
	// Replaying the trace on the same platform model must land close to the
	// original's virtual time (deterministic compute -> near-exact).
	n := 8
	m := netmodel.BlueGeneL()
	tr, origRes := collect(t, n, m, stencilBody(50))
	res, err := Replay(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	errPct := 100 * math.Abs(res.ElapsedUS-origRes.ElapsedUS) / origRes.ElapsedUS
	if errPct > 1.0 {
		t.Fatalf("replay time off by %.2f%% (%v vs %v)", errPct, res.ElapsedUS, origRes.ElapsedUS)
	}
}

func TestReplayHandlesSubcommunicators(t *testing.T) {
	n := 8
	m := netmodel.Ideal()
	body := func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		me, _ := sub.CommRank(r.Rank())
		sz := sub.Size()
		rq := r.Irecv(sub, (me+sz-1)%sz, 0, 64)
		sq := r.Isend(sub, (me+1)%sz, 0, 64)
		r.Waitall(rq, sq)
		r.Allreduce(sub, 8)
	}
	tr, _ := collect(t, n, m, body)
	prof := mpip.NewProfile()
	if _, err := Replay(tr, m, mpi.WithTracer(prof.TracerFor)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := prof.Count(mpi.OpAllreduce); got != int64(n) {
		t.Fatalf("allreduce count = %d, want %d", got, n)
	}
	if got := prof.Count(mpi.OpCommSplit); got != int64(n) {
		t.Fatalf("commsplit count = %d, want %d", got, n)
	}
}

func TestReplayHandlesWildcards(t *testing.T) {
	n := 4
	m := netmodel.Ideal()
	body := func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 32)
			}
		} else {
			r.Send(r.World(), 0, 0, 32)
		}
	}
	tr, _ := collect(t, n, m, body)
	if _, err := Replay(tr, m); err != nil {
		t.Fatalf("Replay with wildcards: %v", err)
	}
}

func TestReplayVCollectives(t *testing.T) {
	n := 4
	m := netmodel.Ideal()
	counts := []int{10, 20, 30, 40}
	body := func(r *mpi.Rank) {
		r.Gatherv(r.World(), 0, counts[r.Rank()])
		r.Alltoallv(r.World(), counts)
		r.ReduceScatter(r.World(), counts)
		r.Scatterv(r.World(), 0, counts)
		r.Allgatherv(r.World(), counts[r.Rank()])
	}
	tr, _ := collect(t, n, m, body)
	orig := mpip.NewProfile()
	if _, err := mpi.Run(n, m, body, mpi.WithTracer(orig.TracerFor)); err != nil {
		t.Fatal(err)
	}
	prof := mpip.NewProfile()
	if _, err := Replay(tr, m, mpi.WithTracer(prof.TracerFor)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if diffs := mpip.Diff(orig, prof); !diffs.Match() {
		t.Fatalf("v-collective replay differs: %v", diffs)
	}
}

func TestReplayRejectsEmptyTrace(t *testing.T) {
	if _, err := Replay(&trace.Trace{}, nil); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestEquivalentIdenticalTraces(t *testing.T) {
	n := 6
	tr1, _ := collect(t, n, netmodel.Ideal(), stencilBody(10))
	tr2, _ := collect(t, n, netmodel.Ideal(), stencilBody(10))
	if err := Equivalent(tr1, tr2); err != nil {
		t.Fatalf("identical runs not equivalent: %v", err)
	}
}

func TestEquivalentIgnoresWaitGranularity(t *testing.T) {
	n := 2
	withWaitall := func(r *mpi.Rank) {
		rq := r.Irecv(r.World(), 1-r.Rank(), 0, 64)
		sq := r.Isend(r.World(), 1-r.Rank(), 0, 64)
		r.Waitall(rq, sq)
	}
	withWaits := func(r *mpi.Rank) {
		rq := r.Irecv(r.World(), 1-r.Rank(), 0, 64)
		sq := r.Isend(r.World(), 1-r.Rank(), 0, 64)
		r.Wait(rq)
		r.Wait(sq)
	}
	tr1, _ := collect(t, n, netmodel.Ideal(), withWaitall)
	tr2, _ := collect(t, n, netmodel.Ideal(), withWaits)
	if err := Equivalent(tr1, tr2); err != nil {
		t.Fatalf("wait granularity should not matter: %v", err)
	}
}

func TestEquivalentDetectsSizeChange(t *testing.T) {
	n := 2
	mk := func(size int) func(*mpi.Rank) {
		return func(r *mpi.Rank) {
			if r.Rank() == 0 {
				r.Send(r.World(), 1, 0, size)
			} else {
				r.Recv(r.World(), 0, 0, size)
			}
		}
	}
	tr1, _ := collect(t, n, netmodel.Ideal(), mk(100))
	tr2, _ := collect(t, n, netmodel.Ideal(), mk(101))
	err := Equivalent(tr1, tr2)
	if err == nil {
		t.Fatal("size change not detected")
	}
	if !strings.Contains(err.Error(), "differs") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestEquivalentDetectsExtraMessage(t *testing.T) {
	n := 2
	one := func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 8)
		} else {
			r.Recv(r.World(), 0, 0, 8)
		}
	}
	two := func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 8)
			r.Send(r.World(), 1, 0, 8)
		} else {
			r.Recv(r.World(), 0, 0, 8)
			r.Recv(r.World(), 0, 0, 8)
		}
	}
	tr1, _ := collect(t, n, netmodel.Ideal(), one)
	tr2, _ := collect(t, n, netmodel.Ideal(), two)
	if Equivalent(tr1, tr2) == nil {
		t.Fatal("extra message not detected")
	}
}

func TestEquivalentDetectsRankCountMismatch(t *testing.T) {
	tr1, _ := collect(t, 2, netmodel.Ideal(), func(r *mpi.Rank) {})
	tr2, _ := collect(t, 3, netmodel.Ideal(), func(r *mpi.Rank) {})
	if Equivalent(tr1, tr2) == nil {
		t.Fatal("rank count mismatch not detected")
	}
}

func TestReplayAlignedTraceMatchesProfile(t *testing.T) {
	// An aligned (global-queue) trace replays with the same profile as the
	// original group-form trace.
	n := 4
	body := func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 5; i++ {
			if r.Rank()%2 == 0 {
				r.Allreduce(c, 16)
			} else {
				r.Allreduce(c, 16)
			}
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 64)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 64)
			r.Waitall(rq, sq)
		}
	}
	tr, _ := collect(t, n, netmodel.Ideal(), body)
	aligned, err := align.Align(tr)
	if err != nil {
		t.Fatal(err)
	}
	p1 := mpip.NewProfile()
	if _, err := Replay(tr, netmodel.Ideal(), mpi.WithTracer(p1.TracerFor)); err != nil {
		t.Fatal(err)
	}
	p2 := mpip.NewProfile()
	if _, err := Replay(aligned, netmodel.Ideal(), mpi.WithTracer(p2.TracerFor)); err != nil {
		t.Fatal(err)
	}
	if diffs := mpip.Diff(p1, p2); !diffs.Match() {
		t.Fatalf("aligned replay differs: %v", diffs)
	}
}
