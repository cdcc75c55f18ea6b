package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

func collect(t *testing.T, n int, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

func ringBody(iters, size int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		for i := 0; i < iters; i++ {
			r.Compute(25)
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, size)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, size)
			r.Waitall(rq, sq)
		}
	}
}

func TestGenerateRing(t *testing.T) {
	tr := collect(t, 8, ringBody(100, 1024))
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	for _, want := range []string{
		"REQUIRE num_tasks = 8",
		"FOR 100 REPETITIONS {",
		"ALL TASKS t COMPUTE FOR 25 MICROSECONDS",
		"ALL TASKS t ASYNCHRONOUSLY RECEIVE A 1 KILOBYTE MESSAGE FROM TASK (t+7) MOD num_tasks",
		"ALL TASKS t ASYNCHRONOUSLY SEND A 1 KILOBYTE MESSAGE TO TASK (t+1) MOD num_tasks",
		"ALL TASKS t AWAIT COMPLETION",
		"ALL TASKS t RESET THEIR COUNTERS",
		`LOG THE MEDIAN OF elapsed_usecs AS "Total time (us)"`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
	// The generated program is parseable (editability).
	if _, err := conceptual.Parse(src); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, src)
	}
}

func TestGeneratedCodeSizeIndependentOfScale(t *testing.T) {
	// The headline scalability property: code size must not grow with
	// iteration count or rank count for an SPMD pattern.
	small := collect(t, 4, ringBody(10, 64))
	big := collect(t, 32, ringBody(1000, 64))
	ps, err := Generate(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Generate(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.StmtCount() != pb.StmtCount() {
		t.Fatalf("statement count grew with scale: %d -> %d", ps.StmtCount(), pb.StmtCount())
	}
}

func TestGenerateMasterWorker(t *testing.T) {
	n := 8
	tr := collect(t, n, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), i, 0, 256)
			}
		} else {
			r.Send(r.World(), 0, 0, 256)
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "SEND A 256 BYTE MESSAGE TO TASK 0") {
		t.Errorf("worker send not absolute:\n%s", src)
	}
	if !strings.Contains(src, "TASK 0 RECEIVES A 256 BYTE MESSAGE") {
		t.Errorf("master receive missing:\n%s", src)
	}
}

func TestGenerateResolvesWildcards(t *testing.T) {
	n := 4
	tr := collect(t, n, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 128)
			}
		} else {
			r.Send(r.World(), 0, 0, 128)
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if strings.Contains(src, "ANY") {
		t.Fatalf("wildcard leaked into generated code:\n%s", src)
	}
	// The raw trace's wildcards the generator must refuse.
	if err := Traverse(tr, NewConceptualGenerator(nil)); err == nil {
		t.Fatal("expected error generating unresolved wildcards")
	}
}

func TestGenerateAlignsCollectives(t *testing.T) {
	n := 4
	tr := collect(t, n, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Barrier(r.World())
		} else {
			r.Barrier(r.World())
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if got := strings.Count(src, "SYNCHRONIZE"); got != 1 {
		t.Fatalf("expected exactly 1 SYNCHRONIZE, got %d:\n%s", got, src)
	}
	if !strings.Contains(src, "ALL TASKS t SYNCHRONIZE") {
		t.Fatalf("barrier not hoisted to all tasks:\n%s", src)
	}
}

// TestTable1Mappings checks every row of Table 1.
func TestTable1Mappings(t *testing.T) {
	n := 4
	counts := []int{100, 200, 300, 400}
	cases := []struct {
		name string
		body func(*mpi.Rank)
		want []string
		ban  []string
	}{
		{
			name: "Allgather -> REDUCE + MULTICAST",
			body: func(r *mpi.Rank) { r.Allgather(r.World(), 64) },
			want: []string{"REDUCE A 64 BYTE MESSAGE TO TASK 0", "TASK 0 MULTICASTS A 64 BYTE MESSAGE TO ALL TASKS"},
		},
		{
			name: "Allgatherv -> REDUCE averaged + MULTICAST",
			body: func(r *mpi.Rank) { r.Allgatherv(r.World(), counts[r.Rank()]) },
			want: []string{"REDUCE A 250 BYTE MESSAGE TO TASK 0", "MULTICASTS A 250 BYTE MESSAGE"},
		},
		{
			name: "Alltoallv -> MULTICAST averaged",
			body: func(r *mpi.Rank) { r.Alltoallv(r.World(), counts) },
			want: []string{"ALL TASKS t MULTICAST A 250 BYTE MESSAGE TO ALL TASKS"},
		},
		{
			name: "Gather -> REDUCE",
			body: func(r *mpi.Rank) { r.Gather(r.World(), 2, 128) },
			want: []string{"ALL TASKS t REDUCE A 128 BYTE MESSAGE TO TASK 2"},
			ban:  []string{"GATHER"},
		},
		{
			name: "Gatherv -> REDUCE averaged",
			body: func(r *mpi.Rank) { r.Gatherv(r.World(), 1, counts[r.Rank()]) },
			want: []string{"REDUCE A 250 BYTE MESSAGE TO TASK 1"},
		},
		{
			name: "Reduce_scatter -> n REDUCEs with different sizes and roots",
			body: func(r *mpi.Rank) { r.ReduceScatter(r.World(), counts) },
			want: []string{
				"REDUCE A 100 BYTE MESSAGE TO TASK 0",
				"REDUCE A 200 BYTE MESSAGE TO TASK 1",
				"REDUCE A 300 BYTE MESSAGE TO TASK 2",
				"REDUCE A 400 BYTE MESSAGE TO TASK 3",
			},
		},
		{
			name: "Scatter -> MULTICAST",
			body: func(r *mpi.Rank) { r.Scatter(r.World(), 3, 512) },
			want: []string{"TASK 3 MULTICASTS A 512 BYTE MESSAGE TO ALL TASKS"},
		},
		{
			name: "Scatterv -> MULTICAST averaged",
			body: func(r *mpi.Rank) { r.Scatterv(r.World(), 0, counts) },
			want: []string{"TASK 0 MULTICASTS A 250 BYTE MESSAGE TO ALL TASKS"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := collect(t, n, c.body)
			prog, err := Generate(tr, nil)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			src := conceptual.Print(prog)
			for _, w := range c.want {
				if !strings.Contains(src, w) {
					t.Errorf("missing %q in:\n%s", w, src)
				}
			}
			for _, b := range c.ban {
				if strings.Contains(src, b) {
					t.Errorf("forbidden %q in:\n%s", b, src)
				}
			}
		})
	}
}

func TestGenerateSubcommunicatorCollective(t *testing.T) {
	// An allreduce on the even-rank subcommunicator must become a REDUCE
	// over "TASKS t SUCH THAT t MOD 2 = 0" — absolute-rank translation
	// (Section 4.2) applied to a renumbered communicator.
	n := 8
	tr := collect(t, n, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		if r.Rank()%2 == 0 {
			r.Allreduce(sub, 64)
		} else {
			r.Barrier(sub)
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "TASKS t SUCH THAT t MOD 2 = 0 REDUCE A 64 BYTE MESSAGE TO TASKS t SUCH THAT t MOD 2 = 0") {
		t.Errorf("subcomm allreduce not translated:\n%s", src)
	}
	if !strings.Contains(src, "TASKS t SUCH THAT t MOD 2 = 1 SYNCHRONIZE") {
		t.Errorf("subcomm barrier not translated:\n%s", src)
	}
}

func TestGenerateSubcommunicatorPt2Pt(t *testing.T) {
	// A ring within the even subcommunicator: comm-relative rel+1 becomes
	// world-relative rel+2 on the even tasks.
	n := 8
	tr := collect(t, n, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		me, _ := sub.CommRank(r.Rank())
		sz := sub.Size()
		rq := r.Irecv(sub, (me+sz-1)%sz, 0, 64)
		sq := r.Isend(sub, (me+1)%sz, 0, 64)
		r.Waitall(rq, sq)
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "SEND A 64 BYTE MESSAGE TO TASK (t+2) MOD num_tasks") {
		t.Errorf("subcomm relative peer not translated to world offset:\n%s", src)
	}
}

func TestGeneratedRootIsAbsolute(t *testing.T) {
	// Reduce to root 1 of the odd subcommunicator = world rank 3.
	n := 8
	tr := collect(t, n, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		if r.Rank()%2 == 1 {
			r.Reduce(sub, 1, 32)
		} else {
			r.Barrier(sub)
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "REDUCE A 32 BYTE MESSAGE TO TASK 3") {
		t.Errorf("root not translated to absolute rank 3:\n%s", src)
	}
}

func TestGeneratedProgramExecutes(t *testing.T) {
	tr := collect(t, 8, ringBody(20, 2048))
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := conceptual.Execute(prog, 8, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.ElapsedUS <= 0 {
		t.Fatal("generated benchmark ran in zero time")
	}
}

func TestFirstIterationSurplusHoisted(t *testing.T) {
	// A loop whose first iteration computes 10x longer: the generated code
	// must hoist the surplus before the loop and use the steady mean inside,
	// preserving both total time and per-iteration shape.
	n := 4
	tr := collect(t, n, func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 20; i++ {
			if i == 0 {
				r.Compute(1000)
			} else {
				r.Compute(100)
			}
			r.Allreduce(c, 8)
		}
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := conceptual.Print(prog)
	if !strings.Contains(src, "COMPUTE FOR 900 MICROSECONDS") {
		t.Fatalf("first-iteration surplus (900us) not hoisted:\n%s", src)
	}
	if !strings.Contains(src, "COMPUTE FOR 100 MICROSECONDS") {
		t.Fatalf("steady-state compute (100us) missing:\n%s", src)
	}
	// The hoisted statement must appear before FOR in the source.
	hoist := strings.Index(src, "COMPUTE FOR 900")
	loop := strings.Index(src, "FOR 20 REPETITIONS")
	if hoist == -1 || loop == -1 || hoist > loop {
		t.Fatalf("hoisted compute not before the loop:\n%s", src)
	}
	// And the timing must match the original exactly.
	res, err := conceptual.Execute(prog, n, netmodel.BlueGeneL())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := mpi.Run(n, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 20; i++ {
			if i == 0 {
				r.Compute(1000)
			} else {
				r.Compute(100)
			}
			r.Allreduce(c, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	errPct := 100 * (res.ElapsedUS - orig.ElapsedUS) / orig.ElapsedUS
	if errPct < 0 {
		errPct = -errPct
	}
	if errPct > 0.5 {
		t.Fatalf("first-iteration handling off by %.2f%% (%v vs %v)",
			errPct, res.ElapsedUS, orig.ElapsedUS)
	}
}

func TestComputeFloorSuppressesNoise(t *testing.T) {
	tr := collect(t, 2, func(r *mpi.Rank) {
		r.Compute(0.004) // below computeFloorUS
		r.Barrier(r.World())
		r.Compute(50)
		r.Barrier(r.World())
	})
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := conceptual.Print(prog)
	if strings.Contains(src, "0.004") {
		t.Errorf("sub-floor compute emitted:\n%s", src)
	}
	if !strings.Contains(src, "COMPUTE FOR 50") {
		t.Errorf("above-floor compute missing:\n%s", src)
	}
}

// TestReduceScatterBeyondCounts: a Reduce_scatter becomes one rooted REDUCE
// per communicator member, and a member the leaf's Counts do not reach takes
// an even share of Size.
func TestReduceScatterBeyondCounts(t *testing.T) {
	tr := &trace.Trace{N: 4, Comms: map[int][]int{0: {0, 1, 2, 3}}, Groups: []trace.Group{{
		Ranks: taskset.Range(0, 3),
		Seq: []trace.Node{&trace.RSD{Op: mpi.OpReduceScatter, Ranks: taskset.Range(0, 3),
			CommSize: 4, Peer: trace.NoParam, Size: 400, Counts: []int{10, 20}, Root: -1}},
	}}}
	prog, err := Generate(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, s := range prog.Stmts {
		if red, ok := s.(*conceptual.ReduceStmt); ok {
			got = append(got, red.Size)
		}
	}
	want := []int{10, 20, 100, 100}
	if !slices.Equal(got, want) {
		t.Fatalf("coNCePTuaL REDUCE sizes = %v, want %v", got, want)
	}
}

func TestGenerateCommentsPropagate(t *testing.T) {
	tr := collect(t, 2, func(r *mpi.Rank) { r.Barrier(r.World()) })
	prog, err := Generate(tr, &Options{Comments: []string{"hello from the test"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(conceptual.Print(prog), "# hello from the test") {
		t.Fatal("custom comment missing")
	}
}

// TestPrepareIsOnlyPrechecksOnPreparedTrace: a caller with several backends
// prepares once and hands the result to each generator. That is free only if
// a prepared trace passes both O(r) pre-checks, so that Prepare returns it as
// is instead of running Algorithm 2 or Algorithm 1 again.
func TestPrepareIsOnlyPrechecksOnPreparedTrace(t *testing.T) {
	for _, name := range []string{"lu", "sweep3d", "is", "bt"} {
		col := trace.NewCollector(16)
		body := apps.ByName(name).Body(apps.NewConfig(16, apps.ClassS))
		if _, err := mpi.Run(16, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prepared, err := Prepare(col.Trace(), &Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wildcard.Present(prepared) || align.Needed(prepared) {
			t.Fatalf("%s: prepared trace fails a pre-check (wildcards %v, alignment needed %v)",
				name, wildcard.Present(prepared), align.Needed(prepared))
		}
		again, err := Prepare(prepared, &Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again != prepared {
			t.Fatalf("%s: Prepare rebuilt a prepared trace", name)
		}
	}
}
