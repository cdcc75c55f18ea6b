package conceptual

import (
	"runtime"
	"testing"
)

// differentialPrograms covers every statement kind lowerCursor lowers,
// including the subtler shapes: subgroup collectives (planned communicators
// with non-world roots), self-relative and absolute peers, async send/recv
// with awaits, reduce in all three modes (allreduce, rooted, reduce+bcast),
// multicast as broadcast and as many-to-many, and reset/log interplay.
func differentialPrograms() map[string]*Program {
	ringBody := []Stmt{
		&SendStmt{Who: AllTasks, Async: true, Size: 4096, Dest: RelRank(1)},
		&RecvStmt{Who: AllTasks, Async: true, Size: 4096, Source: RelRank(-1)},
		&AwaitStmt{Who: AllTasks},
	}
	return map[string]*Program{
		"ring": {Stmts: []Stmt{
			&ResetStmt{Who: AllTasks},
			&LoopStmt{Count: 25, Body: ringBody},
			&LogStmt{Who: OneTask(0), Label: "ring"},
		}},
		"blocking-pairs": {Stmts: []Stmt{
			&LoopStmt{Count: 10, Body: []Stmt{
				&SendStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{0, 2, 4}}, Size: 512, Dest: RelRank(1)},
				&RecvStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{1, 3, 5}}, Size: 512, Source: RelRank(-1)},
				&SendStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{1, 3, 5}}, Size: 512, Dest: RelRank(-1)},
				&RecvStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{0, 2, 4}}, Size: 512, Source: RelRank(1)},
			}},
		}},
		"collectives": {Stmts: []Stmt{
			&SyncStmt{Who: AllTasks},
			&LoopStmt{Count: 8, Body: []Stmt{
				&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 64},
				&ReduceStmt{Srcs: AllTasks, Dsts: OneTask(0), Size: 1024},
				&MulticastStmt{Srcs: OneTask(0), Dsts: AllTasks, Size: 2048},
				&MulticastStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 128},
			}},
			&SyncStmt{Who: AllTasks},
		}},
		"subgroups": {Stmts: []Stmt{
			&SyncStmt{Who: TaskSel{Kind: SelRange, Lo: 0, Hi: 3}},
			&LoopStmt{Count: 6, Body: []Stmt{
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 2, Hi: 5},
					Dsts: TaskSel{Kind: SelRange, Lo: 2, Hi: 5}, Size: 256},
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 1, Hi: 6}, Dsts: OneTask(3), Size: 64},
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 0, Hi: 4},
					Dsts: TaskSel{Kind: SelRange, Lo: 3, Hi: 5}, Size: 32},
				&MulticastStmt{Srcs: OneTask(2),
					Dsts: TaskSel{Kind: SelStride, Stride: 2, Offset: 0}, Size: 512},
				&MulticastStmt{Srcs: TaskSel{Kind: SelRange, Lo: 4, Hi: 6},
					Dsts: TaskSel{Kind: SelRange, Lo: 4, Hi: 6}, Size: 96},
			}},
			&SyncStmt{Who: AllTasks},
		}},
		"mixed": {Stmts: []Stmt{
			&ResetStmt{Who: AllTasks},
			&LoopStmt{Count: 12, Body: []Stmt{
				&ComputeStmt{Who: AllTasks, USecs: 40},
				&SendStmt{Who: OneTask(1), Size: 8192, Dest: AbsRank(0)},
				&RecvStmt{Who: OneTask(0), Size: 8192, Source: AbsRank(1)},
				&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
			}},
			&LogStmt{Who: AllTasks, Label: "mixed"},
		}},
	}
}

// TestCompileResolvesPlannedComms checks the lowering's communicator
// resolution table directly: world-covering unions map to the world
// reference, planned subgroups map to their plan slot.
func TestCompileResolvesPlannedComms(t *testing.T) {
	n := 8
	p := &Program{Stmts: []Stmt{
		&SyncStmt{Who: TaskSel{Kind: SelRange, Lo: 0, Hi: 3}},
		&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
	}}
	plans := collectCommPlans(p.Stmts, n)
	if len(plans) != 1 {
		t.Fatalf("expected 1 planned communicator, got %d", len(plans))
	}
	c := &compiler{n: n, planIdx: map[string]int{plans[0].key: 0}}
	sub := TaskSel{Kind: SelRange, Lo: 0, Hi: 3}
	if ref, _ := c.commRefFor(sub.Set(n)); ref != 0 {
		t.Errorf("subgroup resolved to %d, want plan slot 0", ref)
	}
	if ref, _ := c.commRefFor(AllTasks.Set(n)); ref != worldRef {
		t.Errorf("world union resolved to %d, want worldRef", ref)
	}
}

// TestLoweringSizesInstructionsOnce pins lowerCursor to one allocation of its
// instruction list: the list's capacity is instrBound's count, which growing
// it by append would overshoot, and the count holds every instruction.
func TestLoweringSizesInstructionsOnce(t *testing.T) {
	const n = 8
	for name, p := range differentialPrograms() {
		cp := lowerCursor(p, n, collectCommPlans(p.Stmts, n), stmtSites(p.Stmts))
		if bound := instrBound(p.Stmts); cap(cp.instrs) != bound || len(cp.instrs) > bound {
			t.Errorf("conceptual.lower_cursor %s: %d instructions in a list of capacity %d, want capacity %d",
				name, len(cp.instrs), cap(cp.instrs), bound)
		}
	}
}

// TestLoweringMemoryIsStatementsPlusDistinctTables bounds what lowerCursor
// allocates: every-task statements carry no mask, and equal selectors and
// rank expressions share one table, so 500 statements at 65,536 tasks cost
// the instruction list plus a handful of tables — not 500 tables of 65,536
// entries (34 MB of masks alone, and a member list behind each, before).
func TestLoweringMemoryIsStatementsPlusDistinctTables(t *testing.T) {
	const n = 1 << 16
	evens := TaskSel{Kind: SelStride, Stride: 2, Offset: 0}
	var stmts []Stmt
	for len(stmts) < 500 {
		stmts = append(stmts,
			&ComputeStmt{Who: AllTasks, USecs: 5},
			&RecvStmt{Who: AllTasks, Async: true, Size: 64, Source: RelRank(n - 1)},
			&SendStmt{Who: AllTasks, Async: true, Size: 64, Dest: RelRank(1)},
			&AwaitStmt{Who: AllTasks},
			&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
			&MulticastStmt{Srcs: OneTask(0), Dsts: AllTasks, Size: 8},
			&SyncStmt{Who: AllTasks},
			&ComputeStmt{Who: evens, USecs: 1},
			&ReduceStmt{Srcs: evens, Dsts: evens, Size: 8},
			&LogStmt{Who: AllTasks, Label: "t"})
	}
	p := &Program{NumTasks: n, Stmts: stmts}
	plans, sites := collectCommPlans(p.Stmts, n), stmtSites(p.Stmts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp := lowerCursor(p, n, plans, sites)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("lowering %d statements for %d tasks allocated %.1f MB, want under 8", len(stmts), n, float64(got)/(1<<20))
	}
	for _, in := range cp.instrs {
		if in.kind == ciOp && in.op.ComputeUS == 5 && in.members != nil {
			t.Fatal("an every-task statement carries a mask")
		}
	}
}
