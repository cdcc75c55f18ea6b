package trace

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// TestLoweringMemoryIsNodesPlusDistinctTables bounds what lowering a trace
// allocates, as conceptual's TestLoweringMemoryIsStatementsPlusDistinctTables
// does for a program: leaves of the whole group carry no mask, equal masks
// and equal per-rank tables are shared, and uniform values stay in the
// template, so 500 leaves at 16,384 ranks cost the instruction list plus a
// handful of tables — not a table per leaf (500 x 128 KB).
func TestLoweringMemoryIsNodesPlusDistinctTables(t *testing.T) {
	const n = 1 << 14
	all, evens := taskset.Range(0, n-1), taskset.Strided(0, 2, n/2)
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	leaf := func(op mpi.Op, ranks taskset.Set, peer Param) *RSD {
		return &RSD{Op: op, Ranks: ranks, CommSize: n, Peer: peer, Size: 64, Root: -1}
	}
	var body []Node
	for len(body) < 500 {
		body = append(body,
			leaf(mpi.OpIrecv, all, RelParam(n-1)),
			leaf(mpi.OpIsend, all, RelParam(1)),
			leaf(mpi.OpWaitall, all, NoParam),
			leaf(mpi.OpAllreduce, all, NoParam),
			leaf(mpi.OpSend, evens, RelParam(1)),
			leaf(mpi.OpRecv, all, AnyParam),
			leaf(mpi.OpBarrier, evens, NoParam),
			leaf(mpi.OpSend, all, AbsParam(0)))
	}
	tr := &Trace{N: n, Comms: map[int][]int{0: world},
		Groups: []Group{{Ranks: all, Seq: []Node{&Loop{Iters: 3, Body: body}}}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	low := Lower(tr)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%.2f MB", float64(got)/(1<<20))
	if got > 4<<20 {
		t.Errorf("lowering %d leaves for %d ranks allocated %.1f MB, want under 4", len(body), n, float64(got)/(1<<20))
	}
	masks, tables := map[*bool]bool{}, map[*int]bool{}
	for _, in := range low.progs[0].Instrs {
		if in.Members != nil {
			masks[&in.Members[0]] = true
		}
		if in.Vals != nil {
			tables[&in.Vals[0]] = true
		}
	}
	if len(masks) != 1 || len(tables) != 3 {
		t.Errorf("%d distinct masks and %d distinct tables, want 1 (the evens) and 3 (offsets 1 and n-1 of every rank, 1 of the evens)",
			len(masks), len(tables))
	}
}
