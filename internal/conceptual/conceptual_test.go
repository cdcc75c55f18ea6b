package conceptual

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
)

// paperExample is the program from Section 3.2 of the paper, lightly
// adapted to this implementation's grammar.
func paperExample() *Program {
	return &Program{
		NumTasks: 8,
		Comments: []string{"ring benchmark from the paper's Section 3.2"},
		Stmts: []Stmt{
			&LoopStmt{Count: 1000, Body: []Stmt{
				&ResetStmt{Who: AllTasks},
				&SendStmt{Who: AllTasks, Async: true, Size: 1024, Dest: RelRank(1)},
				&RecvStmt{Who: AllTasks, Async: true, Size: 1024, Source: RelRank(7)},
				&AwaitStmt{Who: AllTasks},
				&LogStmt{Who: AllTasks, Label: "Time (us)"},
			}},
		},
	}
}

func TestPrintPaperExample(t *testing.T) {
	src := Print(paperExample())
	for _, want := range []string{
		"REQUIRE num_tasks = 8",
		"FOR 1000 REPETITIONS {",
		"ALL TASKS t RESET THEIR COUNTERS THEN",
		"ALL TASKS t ASYNCHRONOUSLY SEND A 1 KILOBYTE MESSAGE TO TASK (t+1) MOD num_tasks THEN",
		"ALL TASKS t ASYNCHRONOUSLY RECEIVE A 1 KILOBYTE MESSAGE FROM TASK (t+7) MOD num_tasks THEN",
		"ALL TASKS t AWAIT COMPLETION THEN",
		`ALL TASKS t LOG THE MEDIAN OF elapsed_usecs AS "Time (us)"`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	progs := []*Program{
		paperExample(),
		{
			NumTasks: 16,
			Stmts: []Stmt{
				&SyncStmt{Who: AllTasks},
				&ReduceStmt{Srcs: TaskSel{Kind: SelStride, Stride: 3, Offset: 0}, Dsts: OneTask(0), Size: 8},
				&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 64},
				&MulticastStmt{Srcs: OneTask(2), Dsts: AllTasks, Size: 4096},
				&MulticastStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 512},
				&ComputeStmt{Who: TaskSel{Kind: SelRange, Lo: 4, Hi: 11}, USecs: 123.456},
				&SendStmt{Who: OneTask(5), Size: 3, Dest: AbsRank(0)},
				&RecvStmt{Who: OneTask(0), Size: 3, Source: AbsRank(5)},
				&ComputeStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{1, 5, 9}}, USecs: 7},
			},
		},
	}
	for _, p := range progs {
		src := Print(p)
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
		}
		src2 := Print(back)
		if src != src2 {
			t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", src, src2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"FOR x REPETITIONS { }",
		"ALL TASKS t FROBNICATE",
		"TASK 0 SENDS A 8 FURLONG MESSAGE TO TASK 1",
		"TASKS t SUCH THAT q > 3 SYNCHRONIZE",
		"ALL TASKS t SEND A 8 BYTE MESSAGE",           // missing TO
		"FOR 3 REPETITIONS { ALL TASKS t SYNCHRONIZE", // unclosed
		"ALL TASKS t COMPUTE FOR fish MICROSECONDS",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestTaskSelMembers(t *testing.T) {
	n := 12
	cases := []struct {
		sel  TaskSel
		want []int
	}{
		{AllTasks, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{OneTask(3), []int{3}},
		{OneTask(99), nil},
		{TaskSel{Kind: SelRange, Lo: 2, Hi: 4}, []int{2, 3, 4}},
		{TaskSel{Kind: SelStride, Stride: 4, Offset: 1}, []int{1, 5, 9}},
		{OneTask(-1), nil},
		{TaskSel{Kind: SelRange, Lo: -3, Hi: 1}, []int{0, 1}},
		{TaskSel{Kind: SelRange, Lo: 10, Hi: 40}, []int{10, 11}},
		{TaskSel{Kind: SelRange, Lo: 5, Hi: 4}, nil},
		{TaskSel{Kind: SelStride, Stride: 4, Offset: 4}, nil},
		{TaskSel{Kind: SelStride, Stride: 0, Offset: 0}, nil},
		{TaskSel{Kind: SelStride, Stride: 20, Offset: 11}, []int{11}},
		{TaskSel{Kind: SelStride, Stride: 20, Offset: 12}, nil},
		{TaskSel{Kind: SelEnum, Enum: []int{7, 2, 2, 99, -1}}, []int{2, 7}},
	}
	for _, c := range cases {
		got := c.sel.Set(n).Members()
		if len(got) != len(c.want) {
			t.Errorf("%v members = %v, want %v", c.sel, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v members = %v, want %v", c.sel, got, c.want)
				break
			}
		}
	}
}

func TestTaskSelContainsMatchesMembers(t *testing.T) {
	f := func(kindRaw, a, b, c uint8) bool {
		n := 16
		sels := []TaskSel{
			AllTasks,
			OneTask(int(a)%24 - 4),
			{Kind: SelRange, Lo: int(a)%24 - 4, Hi: int(b)%24 - 4},
			{Kind: SelStride, Stride: int(a) % 6, Offset: int(b)%8 - 1},
			{Kind: SelEnum, Enum: []int{int(a)%24 - 4, int(b)%24 - 4, int(c)%24 - 4}},
		}
		sel := sels[int(kindRaw)%len(sels)]
		members := map[int]bool{}
		for _, m := range sel.Set(n).Members() {
			members[m] = true
		}
		for task := 0; task < n; task++ {
			if sel.Contains(task, n) != members[task] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankExprEval(t *testing.T) {
	if got := AbsRank(3).Eval(7, 8); got != 3 {
		t.Errorf("abs eval = %d", got)
	}
	if got := RelRank(1).Eval(7, 8); got != 0 {
		t.Errorf("rel wrap eval = %d", got)
	}
	if got := RelRank(0).Eval(5, 8); got != 5 {
		t.Errorf("self eval = %d", got)
	}
}

func TestExecuteRing(t *testing.T) {
	p := paperExample()
	p.Stmts[0].(*LoopStmt).Count = 50 // keep the test fast
	res, err := Execute(p, 8, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.ElapsedUS <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if len(res.Logs) != 8*50 {
		t.Fatalf("got %d log entries, want 400", len(res.Logs))
	}
}

func TestExecuteRejectsBadTaskCount(t *testing.T) {
	if _, err := Execute(&Program{}, 0, nil); err == nil {
		t.Fatal("expected error for zero tasks")
	}
}

func TestExecuteCollectives(t *testing.T) {
	evens := TaskSel{Kind: SelStride, Stride: 2, Offset: 0}
	p := &Program{NumTasks: 8, Stmts: []Stmt{
		&SyncStmt{Who: AllTasks},
		&ReduceStmt{Srcs: AllTasks, Dsts: OneTask(0), Size: 64},
		&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
		&MulticastStmt{Srcs: OneTask(0), Dsts: AllTasks, Size: 1024},
		&MulticastStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 256},
		&SyncStmt{Who: evens},
		&ReduceStmt{Srcs: evens, Dsts: OneTask(0), Size: 32},
	}}
	prof := mpip.NewProfile()
	_, err := Execute(p, 8, netmodel.BlueGeneL(),
		WithMPIOptions(mpi.WithTracer(prof.TracerFor)))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := prof.Count(mpi.OpBarrier); got != 8+4 {
		t.Errorf("barrier count = %d, want 12 (8 world + 4 evens)", got)
	}
	if got := prof.Count(mpi.OpReduce); got != 8+4 {
		t.Errorf("reduce count = %d, want 12", got)
	}
	if got := prof.Count(mpi.OpAllreduce); got != 8 {
		t.Errorf("allreduce count = %d, want 8", got)
	}
	if got := prof.Count(mpi.OpBcast); got != 8 {
		t.Errorf("bcast count = %d, want 8", got)
	}
	if got := prof.Count(mpi.OpAlltoall); got != 8 {
		t.Errorf("alltoall count = %d, want 8", got)
	}
}

func TestExecuteSubgroupCommCreated(t *testing.T) {
	// A reduce among a stride group must happen on a 4-member communicator,
	// which affects its simulated cost (log2 4 = 2 levels, not 3).
	evens := TaskSel{Kind: SelStride, Stride: 2, Offset: 0}
	p := &Program{Stmts: []Stmt{&SyncStmt{Who: evens}}}
	m := netmodel.BlueGeneL()
	res, err := Execute(p, 8, m)
	if err != nil {
		t.Fatal(err)
	}
	// All the elapsed time beyond the setup split should reflect a
	// 4-member barrier; just sanity-check it ran and produced time.
	if res.ElapsedUS <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestExecuteComputeScaling(t *testing.T) {
	mk := func(us float64) *Program {
		return &Program{Stmts: []Stmt{
			&LoopStmt{Count: 10, Body: []Stmt{
				&ComputeStmt{Who: AllTasks, USecs: us},
				&SyncStmt{Who: AllTasks},
			}},
		}}
	}
	m := netmodel.BlueGeneL()
	slow, err := Execute(mk(1000), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Execute(mk(10), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	delta := slow.ElapsedUS - fast.ElapsedUS
	if math.Abs(delta-10*990) > 1e-6 {
		t.Fatalf("compute scaling delta = %v, want 9900", delta)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	p := paperExample()
	p.Stmts[0].(*LoopStmt).Count = 20
	a, err := Execute(p, 8, netmodel.EthernetCluster())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(p, 8, netmodel.EthernetCluster())
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedUS != b.ElapsedUS {
		t.Fatalf("nondeterministic execution: %v vs %v", a.ElapsedUS, b.ElapsedUS)
	}
}

func TestStmtCount(t *testing.T) {
	p := paperExample()
	if got := p.StmtCount(); got != 6 { // loop + 5 body stmts
		t.Fatalf("StmtCount = %d, want 6", got)
	}
}

func TestGenerateC(t *testing.T) {
	src := GenerateC(paperExample())
	for _, want := range []string{
		"#include <mpi.h>",
		"MPI_Init(&argc, &argv);",
		"for (int i1 = 0; i1 < 1000; i1++) {",
		"MPI_Isend(msgbuf, 1024, MPI_BYTE, (rank + 1) % num_tasks, 0, MPI_COMM_WORLD, ncptl_request());",
		"MPI_Irecv(msgbuf, 1024, MPI_BYTE, (rank + 7) % num_tasks, 0, MPI_COMM_WORLD, ncptl_request());",
		"MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0;",
		"MPI_Finalize();",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("C output missing %q:\n%s", want, src)
		}
	}
}

func TestGenerateCGuards(t *testing.T) {
	p := &Program{Stmts: []Stmt{
		&SendStmt{Who: OneTask(3), Size: 8, Dest: AbsRank(0)},
		&ComputeStmt{Who: TaskSel{Kind: SelStride, Stride: 2, Offset: 1}, USecs: 5},
		&SyncStmt{Who: TaskSel{Kind: SelRange, Lo: 1, Hi: 3}},
	}}
	src := GenerateC(p)
	for _, want := range []string{
		"if (rank == 3) {",
		"if (rank % 2 == 1) {",
		"if (rank >= 1 && rank <= 3) {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("C output missing %q:\n%s", want, src)
		}
	}
}

func TestParsedProgramExecutesIdentically(t *testing.T) {
	// Print -> Parse -> Execute must agree with direct execution: the
	// editability loop of the paper.
	p := paperExample()
	p.Stmts[0].(*LoopStmt).Count = 25
	direct, err := Execute(p, 8, netmodel.BlueGeneL())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(Print(p))
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := Execute(back, 8, netmodel.BlueGeneL())
	if err != nil {
		t.Fatal(err)
	}
	if direct.ElapsedUS != reparsed.ElapsedUS {
		t.Fatalf("parsed program ran differently: %v vs %v", direct.ElapsedUS, reparsed.ElapsedUS)
	}
}

func TestExecuteReduceToSubgroup(t *testing.T) {
	// REDUCE from all tasks to a subgroup (neither a single root nor an
	// allreduce) maps to a rooted reduce followed by a broadcast.
	p := &Program{NumTasks: 8, Stmts: []Stmt{
		&ReduceStmt{Srcs: AllTasks, Dsts: TaskSel{Kind: SelRange, Lo: 0, Hi: 3}, Size: 128},
	}}
	prof := mpip.NewProfile()
	if _, err := Execute(p, 8, netmodel.BlueGeneL(),
		WithMPIOptions(mpi.WithTracer(prof.TracerFor))); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := prof.Count(mpi.OpReduce); got != 8 {
		t.Errorf("reduce count = %d, want 8", got)
	}
	if got := prof.Count(mpi.OpBcast); got != 8 {
		t.Errorf("bcast count = %d, want 8", got)
	}
}

func TestExecuteMulticastToSubgroup(t *testing.T) {
	// A multicast whose participants are a strict subset runs on a derived
	// communicator of exactly that size.
	odd := TaskSel{Kind: SelStride, Stride: 2, Offset: 1}
	p := &Program{NumTasks: 8, Stmts: []Stmt{
		&MulticastStmt{Srcs: OneTask(1), Dsts: odd, Size: 64},
	}}
	prof := mpip.NewProfile()
	if _, err := Execute(p, 8, netmodel.BlueGeneL(),
		WithMPIOptions(mpi.WithTracer(prof.TracerFor))); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := prof.Count(mpi.OpBcast); got != 4 {
		t.Errorf("bcast count = %d, want 4 (odd tasks only)", got)
	}
}

func TestGenerateCCollectives(t *testing.T) {
	p := &Program{Stmts: []Stmt{
		&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 16},
		&ReduceStmt{Srcs: AllTasks, Dsts: OneTask(2), Size: 32},
		&MulticastStmt{Srcs: OneTask(1), Dsts: AllTasks, Size: 64},
		&MulticastStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
		&AwaitStmt{Who: AllTasks},
		&ResetStmt{Who: AllTasks},
		&LogStmt{Who: OneTask(0), Label: "t 100%"},
	}}
	src := GenerateC(p)
	for _, want := range []string{
		"MPI_Allreduce(MPI_IN_PLACE, msgbuf, 16",
		"MPI_Reduce(rank == 2 ? MPI_IN_PLACE : msgbuf, msgbuf, 32, MPI_BYTE, MPI_BOR, 2",
		"MPI_Bcast(msgbuf, 64, MPI_BYTE, 1",
		"MPI_Alltoall(MPI_IN_PLACE, 0, MPI_BYTE, msgbuf, 8",
		"MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0;",
		"reset_at = MPI_Wtime();",
		// A label is printf's argument, never part of its format.
		`printf("%d %s %f\n", rank, "t 100%", `,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("C output missing %q:\n%s", want, src)
		}
	}
	// MPI_IN_PLACE on a rank that is not the root, and aliased send and
	// receive buffers, are erroneous MPI.
	for _, bad := range []string{"MPI_Reduce(MPI_IN_PLACE", "MPI_Alltoall(msgbuf"} {
		if strings.Contains(src, bad) {
			t.Errorf("C output holds %q:\n%s", bad, src)
		}
	}
}

func TestPrintParseRandomPrograms(t *testing.T) {
	// Property-style: random small programs survive a print/parse/print
	// round trip byte for byte.
	mk := func(seed int) *Program {
		sels := []TaskSel{
			AllTasks, OneTask(seed % 7),
			{Kind: SelRange, Lo: 1, Hi: 4},
			{Kind: SelStride, Stride: 3, Offset: seed % 3},
			{Kind: SelEnum, Enum: []int{0, 2, 5}},
		}
		sel := sels[seed%len(sels)]
		stmts := []Stmt{
			&SendStmt{Who: sel, Async: seed%2 == 0, Size: 8 << (seed % 8), Dest: RelRank(seed%5 + 1)},
			&RecvStmt{Who: sel, Async: seed%3 == 0, Size: 24, Source: AbsRank(seed % 4)},
			&ComputeStmt{Who: sel, USecs: float64(seed%100) + 0.5},
			&SyncStmt{Who: sel},
		}
		return &Program{NumTasks: 8, Stmts: []Stmt{
			&LoopStmt{Count: seed%9 + 1, Body: stmts},
		}}
	}
	for seed := 0; seed < 40; seed++ {
		p := mk(seed)
		src := Print(p)
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: Parse: %v\n%s", seed, err, src)
		}
		if again := Print(back); again != src {
			t.Fatalf("seed %d: round trip differs:\n%s\nvs\n%s", seed, src, again)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Property: arbitrary input never panics the parser — it returns an
	// error or a program.
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// And a few adversarial near-valid inputs.
	for _, src := range []string{
		"FOR 3 REPETITIONS { FOR 2 REPETITIONS {",
		"ALL TASKS t SEND A 99999999999999999999 BYTE MESSAGE TO TASK 0",
		`ALL TASKS t LOG THE MEDIAN OF elapsed_usecs AS "unterminated`,
		"TASK (t+",
		"TASKS t SUCH THAT t IS IN {1, 2,",
	} {
		func() {
			defer func() {
				if recover() != nil {
					t.Errorf("Parse(%q) panicked", src)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}
