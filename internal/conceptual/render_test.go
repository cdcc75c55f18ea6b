package conceptual

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// renderTable is a program holding every statement kind under every selector
// kind (all/one/range/stride/enum) and every rank-expression kind
// (absolute/self/relative), at three loop depths, with sizes and durations
// that take each branch of the size and duration phrases.
func renderTable() *Program {
	sels := []TaskSel{
		AllTasks,
		OneTask(3),
		{Kind: SelRange, Lo: 2, Hi: 5},
		{Kind: SelStride, Stride: 4, Offset: 1},
		{Kind: SelEnum, Enum: []int{0, 3, 4, 9}},
	}
	ranks := []RankExpr{AbsRank(0), AbsRank(7), RelRank(0), RelRank(1), RelRank(15)}
	sizes := []int{0, 1, 1000, 1 << 10, 3 << 10, 1 << 20, 5 << 20, 1<<20 + 1}
	usecs := []float64{0, 1, 1.5, 0.125, 0.0004, 12.3456, 1e6, 100, 1e21}

	var flat []Stmt
	k := 0
	size := func() int { k++; return sizes[k%len(sizes)] }
	for _, who := range sels {
		for _, peer := range ranks {
			flat = append(flat,
				&SendStmt{Who: who, Size: size(), Dest: peer},
				&SendStmt{Who: who, Async: true, Size: size(), Dest: peer},
				&RecvStmt{Who: who, Size: size(), Source: peer},
				&RecvStmt{Who: who, Async: true, Size: size(), Source: peer})
		}
		flat = append(flat, &AwaitStmt{Who: who}, &SyncStmt{Who: who}, &ResetStmt{Who: who},
			&LogStmt{Who: who, Label: "Total time (us)"}, &LogStmt{Who: who, Label: "a \"quoted\"\tlabel\\ é"})
		for _, us := range usecs {
			flat = append(flat, &ComputeStmt{Who: who, USecs: us})
		}
		for _, other := range sels {
			flat = append(flat,
				&ReduceStmt{Srcs: who, Dsts: other, Size: size()},
				&MulticastStmt{Srcs: who, Dsts: other, Size: size()})
		}
	}
	inner := &LoopStmt{Count: 3, Body: flat[:40]}
	outer := &LoopStmt{Count: 1000, Body: append([]Stmt{inner, &LoopStmt{Count: 0}}, flat[40:80]...)}
	return &Program{
		Comments: []string{"every statement x selector x rank expression", ""},
		NumTasks: 16,
		Stmts:    append([]Stmt{outer, &LoopStmt{Count: 2, Body: []Stmt{&SyncStmt{Who: AllTasks}}}}, flat...),
	}
}

// TestRenderTable holds Print, GenerateC and GenerateGo to
// testdata/render.golden, whose coNCePTuaL and C sections were first recorded
// by separate per-language printers.
func TestRenderTable(t *testing.T) {
	p := renderTable()
	bare := &Program{Stmts: []Stmt{&SyncStmt{Who: AllTasks}}}
	got := "=== conceptual\n" + Print(p) + "=== c\n" + GenerateC(p) +
		"=== conceptual, no header\n" + Print(bare) + "=== c, no header\n" + GenerateC(bare) +
		"=== go\n" + GenerateGo(p)
	golden.Text(t, filepath.Join("testdata", "render.golden"), []byte(got))
	// The coNCePTuaL text still parses back to itself.
	back, err := Parse(Print(p))
	if err != nil {
		t.Fatalf("Parse(Print(table)): %v", err)
	}
	if Print(back) != Print(p) {
		t.Error("Print is not a fixed point of Parse∘Print on the table program")
	}
}

// TestGenerateCRequestBound holds the request array to the most requests a
// task can have outstanding: loop counts multiply, an AWAIT that selects the
// task completes them, and an array longer than the default 4096 is static.
// Without a task count only an AWAIT of every task completes them.
func TestGenerateCRequestBound(t *testing.T) {
	isend := &SendStmt{Who: AllTasks, Async: true, Size: 8, Dest: RelRank(1)}
	irecv := &RecvStmt{Who: AllTasks, Async: true, Size: 8, Source: RelRank(-1)}
	loop := func(count int, body ...Stmt) *LoopStmt { return &LoopStmt{Count: count, Body: body} }
	even := &AwaitStmt{Who: TaskSel{Kind: SelStride, Stride: 2, Offset: 0}}
	odd := &AwaitStmt{Who: TaskSel{Kind: SelStride, Stride: 2, Offset: 1}}
	for _, c := range []struct {
		name  string
		tasks int
		stmts []Stmt
		want  string
	}{
		{"5,000 async sends", 0, []Stmt{loop(5000, isend)}, "  static MPI_Request reqs[5000];\n"},
		{"an AWAIT in the loop", 0, []Stmt{loop(5000, isend, &AwaitStmt{Who: AllTasks})}, "  MPI_Request reqs[4096];\n"},
		{"one task's AWAIT", 4, []Stmt{loop(5000, isend, &AwaitStmt{Who: OneTask(0)})}, "  static MPI_Request reqs[5000];\n"},
		{"every task in some AWAIT", 4, []Stmt{loop(5000, isend, even, odd)}, "  MPI_Request reqs[4096];\n"},
		{"every task in some AWAIT, no task count", 0, []Stmt{loop(5000, isend, even, odd)}, "  static MPI_Request reqs[5000];\n"},
		{"nested loops", 0, []Stmt{loop(100, loop(30, isend, irecv)), irecv}, "  static MPI_Request reqs[6001];\n"},
		{"an AWAIT between loops", 0, []Stmt{loop(3000, isend), &AwaitStmt{Who: AllTasks}, loop(3000, irecv)}, "  MPI_Request reqs[4096];\n"},
		{"the second iteration peaks", 0, []Stmt{loop(3, loop(2000, isend), &AwaitStmt{Who: AllTasks}, loop(2500, irecv))}, "  static MPI_Request reqs[4500];\n"},
		{"a count past int32", 0, []Stmt{loop(1<<20, loop(1<<20, isend))}, "  static MPI_Request reqs[2147483647];\n"},
	} {
		if src := GenerateC(&Program{NumTasks: c.tasks, Stmts: c.stmts}); !strings.Contains(src, c.want) {
			t.Errorf("%s: C output does not declare %q:\n%s", c.name, c.want, src)
		}
	}
	if src := GenerateC(paperExample()); !strings.Contains(src, "  MPI_Request reqs[4096];\n") {
		t.Errorf("the paper's example no longer declares 4096 requests:\n%s", src)
	}
}
