package conceptual

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
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

// TestRenderTable holds Print and GenerateC to the text the per-language
// printers produced before they shared a writer and a dialect table
// (testdata/render.golden was recorded by those printers). internal/core's
// TestGoRenderTable does the same for the Go backend.
func TestRenderTable(t *testing.T) {
	p := renderTable()
	bare := &Program{Stmts: []Stmt{&SyncStmt{Who: AllTasks}}}
	got := "=== conceptual\n" + Print(p) + "=== c\n" + GenerateC(p) +
		"=== conceptual, no header\n" + Print(bare) + "=== c, no header\n" + GenerateC(bare)
	golden := filepath.Join("testdata", "render.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendered text differs from %s%s", golden, firstDiff(got, string(want)))
	}
	// The coNCePTuaL text still parses back to itself.
	back, err := Parse(Print(p))
	if err != nil {
		t.Fatalf("Parse(Print(table)): %v", err)
	}
	if Print(back) != Print(p) {
		t.Error("Print is not a fixed point of Parse∘Print on the table program")
	}
}

// firstDiff describes the first line two texts differ in.
func firstDiff(got, want string) string {
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return "\nline " + strconv.Itoa(line) + ":\n got  " + lineAt(got, i) + "\n want " + lineAt(want, i)
		}
		if got[i] == '\n' {
			line++
		}
	}
	return "\nlengths " + strconv.Itoa(len(got)) + " vs " + strconv.Itoa(len(want))
}

func lineAt(s string, i int) string {
	lo, hi := i, i
	for lo > 0 && s[lo-1] != '\n' {
		lo--
	}
	for hi < len(s) && s[hi] != '\n' {
		hi++
	}
	return s[lo:hi]
}
