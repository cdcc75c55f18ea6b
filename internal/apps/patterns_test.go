package apps

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
)

// profileApp runs an app under the mpiP-style profiler.
func profileApp(t *testing.T, name string, n int, class Class) *mpip.Profile {
	t.Helper()
	app := ByName(name)
	if app == nil {
		t.Fatalf("unknown app %q", name)
	}
	p := mpip.NewProfile()
	if _, err := mpi.Run(n, netmodel.Ideal(), app.Body(NewConfig(n, class)),
		mpi.WithTracer(p.TracerFor)); err != nil {
		t.Fatalf("Run %s: %v", name, err)
	}
	return p
}

// The structural assertions below pin each skeleton to the communication
// signature of its NPB counterpart, so refactoring cannot silently change
// what the evaluation exercises.

func TestBTPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "bt", n, ClassS)
	iters := ByName("bt").Iterations(ClassS)
	// copy_faces: 4 isends + 4 irecvs per rank per iteration; solves add
	// direction exchanges (diagonal ranks skip z).
	minSends := int64(n * iters * 4)
	if got := p.Count(mpi.OpIsend); got < minSends {
		t.Fatalf("bt isends = %d, want >= %d", got, minSends)
	}
	if got := p.Count(mpi.OpBcast); got != int64(2*n) {
		t.Fatalf("bt bcasts = %d, want %d (two setup broadcasts)", got, 2*n)
	}
	if got := p.Count(mpi.OpReduce); got != int64(n) {
		t.Fatalf("bt reduces = %d, want %d (verification)", got, n)
	}
	if p.Count(mpi.OpRecv) != 0 {
		t.Fatal("bt must use only nonblocking receives")
	}
}

func TestCGPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "cg", n, ClassS)
	// CG's butterfly means log2(npcols) exchanges per iteration; with
	// npcols=8 for n=16 that is 3 + 1 transpose per iteration.
	if p.Count(mpi.OpAllreduce) == 0 {
		t.Fatal("cg must perform rho/residual allreduces")
	}
	if p.Count(mpi.OpIsend) == 0 {
		t.Fatal("cg must perform pairwise exchanges")
	}
	if p.Count(mpi.OpBarrier) != int64(n) {
		t.Fatal("cg has exactly one startup barrier per rank")
	}
}

func TestEPPattern(t *testing.T) {
	p := profileApp(t, "ep", 16, ClassS)
	// EP is embarrassingly parallel: no point-to-point at all.
	if p.Count(mpi.OpIsend)+p.Count(mpi.OpSend)+p.Count(mpi.OpIrecv)+p.Count(mpi.OpRecv) != 0 {
		t.Fatal("ep must not use point-to-point communication")
	}
	if got := p.Count(mpi.OpAllreduce); got != int64(3*16) {
		t.Fatalf("ep allreduces = %d, want 48", got)
	}
}

func TestFTPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "ft", n, ClassS)
	iters := ByName("ft").Iterations(ClassS)
	if got := p.Count(mpi.OpAlltoall); got != int64(n*iters) {
		t.Fatalf("ft alltoalls = %d, want %d (one transpose per step)", got, n*iters)
	}
	if got := p.Count(mpi.OpAllreduce); got != int64(n*iters) {
		t.Fatalf("ft checksums = %d, want %d", got, n*iters)
	}
}

func TestISPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "is", n, ClassS)
	iters := ByName("is").Iterations(ClassS)
	if got := p.Count(mpi.OpAlltoallv); got != int64(n*iters) {
		t.Fatalf("is alltoallvs = %d, want %d", got, n*iters)
	}
	// Boundary exchange in full_verify: ranks 1..n-1 send, 0..n-2 receive.
	if got := p.Count(mpi.OpSend); got != int64(n-1) {
		t.Fatalf("is verify sends = %d, want %d", got, n-1)
	}
}

func TestLUPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "lu", n, ClassS)
	// Every pipeline receive uses the wildcard; counts balance sends.
	if got := p.Count(mpi.OpRecv); got == 0 {
		t.Fatal("lu must use blocking receives")
	}
	if got, want := p.Count(mpi.OpRecv), p.Count(mpi.OpSend); got != want {
		t.Fatalf("lu recv/send mismatch: %d vs %d", got, want)
	}
	if p.Count(mpi.OpIsend) != 0 {
		t.Fatal("lu's pipeline is blocking, not nonblocking")
	}
}

func TestMGPattern(t *testing.T) {
	p := profileApp(t, "mg", 16, ClassS)
	// V-cycle: halo exchanges at every level, both legs.
	if p.Count(mpi.OpIsend) == 0 || p.Count(mpi.OpIrecv) == 0 {
		t.Fatal("mg must perform halo exchanges")
	}
	if p.Count(mpi.OpAllreduce) == 0 {
		t.Fatal("mg must perform coarse-grid and norm reductions")
	}
	// Halo sizes shrink per level; the largest message dwarfs the smallest.
	if p.Bytes(mpi.OpIsend) <= p.Count(mpi.OpIsend)*32 {
		t.Fatal("mg level sizes look degenerate")
	}
}

func TestSweep3DPattern(t *testing.T) {
	n := 16
	p := profileApp(t, "sweep3d", n, ClassS)
	// Wavefronts: blocking sends/recvs; corners send fewer than interiors.
	if p.Count(mpi.OpRecv) == 0 || p.Count(mpi.OpSend) == 0 {
		t.Fatal("sweep3d must use blocking pipeline exchanges")
	}
	if got, want := p.Count(mpi.OpRecv), p.Count(mpi.OpSend); got != want {
		t.Fatalf("sweep3d recv/send mismatch: %d vs %d", got, want)
	}
	iters := ByName("sweep3d").Iterations(ClassS)
	if got := p.Count(mpi.OpAllreduce); got != int64(n*iters) {
		t.Fatalf("sweep3d convergence allreduces = %d, want %d", got, n*iters)
	}
}

func TestSPHeavierThanBTPerIteration(t *testing.T) {
	// SP runs twice the iterations of BT with smaller messages; its total
	// call count must exceed BT's at the same class.
	bt := profileApp(t, "bt", 16, ClassS)
	sp := profileApp(t, "sp", 16, ClassS)
	var spCalls, btCalls int64
	for op := 0; op < mpi.NumOps; op++ {
		spCalls += sp.Count(mpi.Op(op))
		btCalls += bt.Count(mpi.Op(op))
	}
	if spCalls <= btCalls {
		t.Fatalf("sp calls %d should exceed bt calls %d", spCalls, btCalls)
	}
	if sp.Bytes(mpi.OpIsend) >= bt.Bytes(mpi.OpIsend)*2 {
		t.Fatalf("sp per-message volume should be smaller than bt's")
	}
}

func TestHalo2DBoundaryRanksDiffer(t *testing.T) {
	// Corner ranks exchange 2 halos, edges 3, interior 4 — the behaviour
	// split that produces multiple trace groups.
	n := 9 // 3x3
	p := profileApp(t, "halo2d", n, ClassS)
	iters := ByName("halo2d").Iterations(ClassS)
	// total exchanges per iteration: sum of neighbor counts = 2*edges = 2*12.
	want := int64(24 * iters)
	if got := p.Count(mpi.OpIsend); got != want {
		t.Fatalf("halo2d isends = %d, want %d", got, want)
	}
}

func TestPingPongPattern(t *testing.T) {
	n := 4
	p := profileApp(t, "pingpong", n, ClassS)
	if got, want := p.Count(mpi.OpSend), p.Count(mpi.OpRecv); got != want {
		t.Fatalf("pingpong send/recv mismatch: %d vs %d", got, want)
	}
	// Sizes double across levels: total volume must dwarf count*8.
	if p.Bytes(mpi.OpSend) < p.Count(mpi.OpSend)*100 {
		t.Fatalf("pingpong sweep sizes look flat: %d bytes over %d sends",
			p.Bytes(mpi.OpSend), p.Count(mpi.OpSend))
	}
	if !ByName("pingpong").ValidRanks(6) || ByName("pingpong").ValidRanks(5) {
		t.Fatal("pingpong needs even rank counts")
	}
}
