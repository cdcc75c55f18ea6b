package extrap

import (
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

func collect(t *testing.T, n int, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

func ringBody(r *mpi.Rank) {
	c := r.World()
	n := r.Size()
	for i := 0; i < 25; i++ {
		r.Compute(40)
		rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 512)
		sq := r.Isend(c, (r.Rank()+1)%n, 0, 512)
		r.Waitall(rq, sq)
		r.Allreduce(c, 8)
	}
}

func TestExtrapolatedRingMatchesDirectTrace(t *testing.T) {
	// The headline property: a trace extrapolated from 8 ranks to 32 must
	// be event-equivalent to a trace actually collected at 32 ranks.
	small := collect(t, 8, ringBody)
	big, err := Extrapolate(small, 32)
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	direct := collect(t, 32, ringBody)
	if err := replay.Equivalent(big, direct); err != nil {
		t.Fatalf("extrapolated trace differs from direct trace: %v", err)
	}
}

func TestExtrapolatedTraceGeneratesAndRuns(t *testing.T) {
	small := collect(t, 8, ringBody)
	big, err := Extrapolate(small, 64)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Generate(big, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "REQUIRE num_tasks = 64") {
		t.Fatalf("generated program not for 64 tasks:\n%s", src)
	}
	if !strings.Contains(src, "TASK (t+63) MOD num_tasks") {
		t.Fatalf("backward neighbor not rescaled to 63:\n%s", src)
	}
	res, err := conceptual.Execute(prog, 64, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.ElapsedUS <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestExtrapolationPreservesComputeMeans(t *testing.T) {
	small := collect(t, 4, ringBody)
	big, err := Extrapolate(small, 16)
	if err != nil {
		t.Fatal(err)
	}
	var smallMean, bigMean float64
	trace.Leaves(small.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpIrecv {
			smallMean = r.ComputeMean()
		}
	})
	trace.Leaves(big.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpIrecv {
			bigMean = r.ComputeMean()
		}
	})
	if smallMean == 0 || smallMean != bigMean {
		t.Fatalf("compute means changed: %v -> %v", smallMean, bigMean)
	}
}

func TestExtrapolateButterfly(t *testing.T) {
	// Stages 1 and 2 at 8 ranks are unambiguous butterflies (stage 4 would
	// coincide with t+n/2 and is covered by the multi-scale tests).
	butterfly := func(r *mpi.Rank) {
		c := r.World()
		for _, stage := range []int{1, 2} {
			partner := r.Rank() ^ stage
			rq := r.Irecv(c, partner, stage, 64)
			sq := r.Isend(c, partner, stage, 64)
			r.Waitall(rq, sq)
		}
	}
	small := collect(t, 8, butterfly)
	big, err := Extrapolate(small, 32)
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	if _, err := replay.Replay(big, netmodel.Ideal()); err != nil {
		t.Fatalf("replaying extrapolated butterfly: %v", err)
	}
	direct := collect(t, 32, butterfly)
	if err := replay.Equivalent(big, direct); err != nil {
		t.Fatalf("extrapolated butterfly differs: %v", err)
	}
	// A non-power-of-two target must be rejected.
	if _, err := Extrapolate(small, 24); err == nil {
		t.Fatal("non-power-of-two butterfly extrapolation accepted")
	}
}

func TestCheckRejectsOutOfScopeTraces(t *testing.T) {
	subcomm := collect(t, 8, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		r.Barrier(sub)
	})
	if err := Check(subcomm); err == nil {
		t.Fatal("sub-communicator trace accepted")
	}

	masterWorker := collect(t, 4, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < 4; i++ {
				r.Recv(r.World(), i, 0, 8)
			}
		} else {
			r.Send(r.World(), 0, 0, 8)
		}
	})
	if err := Check(masterWorker); err == nil {
		t.Fatal("multi-group trace accepted")
	}

	vcoll := collect(t, 4, func(r *mpi.Rank) {
		r.Alltoallv(r.World(), []int{1, 2, 3, 4})
	})
	if err := Check(vcoll); err == nil {
		t.Fatal("count-vector trace accepted")
	}
}

func TestExtrapolateRejectsBadTarget(t *testing.T) {
	small := collect(t, 4, ringBody)
	if _, err := Extrapolate(small, 0); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := Extrapolate(small, -4); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestExtrapolateDownscales(t *testing.T) {
	big := collect(t, 32, ringBody)
	small, err := Extrapolate(big, 8)
	if err != nil {
		t.Fatalf("Extrapolate down: %v", err)
	}
	direct := collect(t, 8, ringBody)
	if err := replay.Equivalent(small, direct); err != nil {
		t.Fatalf("downscaled trace differs: %v", err)
	}
}
