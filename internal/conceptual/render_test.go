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

// TestGenerateCRequests holds the C requests to the Go printer's growth: a
// task takes every request slot from the prologue's helper, which grows the
// array on demand, so no bound is printed however many requests a loop leaves
// outstanding.
func TestGenerateCRequests(t *testing.T) {
	isend := &SendStmt{Who: AllTasks, Async: true, Size: 8, Dest: RelRank(1)}
	src := GenerateC(&Program{Stmts: []Stmt{&LoopStmt{Count: 5000, Body: []Stmt{isend}}, &AwaitStmt{Who: AllTasks}}})
	if strings.Count(src, "reqs[") != 1 || !strings.Contains(src, "return &reqs[nreqs++];") {
		t.Errorf("C output sizes its request array:\n%s", src)
	}
	if !strings.Contains(src, "MPI_Isend(msgbuf, 8, MPI_BYTE, (rank + 1) % num_tasks, 0, MPI_COMM_WORLD, ncptl_request());") {
		t.Errorf("C output's Isend does not take its slot from ncptl_request:\n%s", src)
	}
}
