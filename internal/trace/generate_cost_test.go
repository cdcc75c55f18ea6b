package trace

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// This file pins what reading a trace back costs on the kernels that compress
// worst, and what the merge fold allocates for rank sets, exactly: a change
// that puts per-field fmt scanning back into Decode, or a rank set per member
// and leaf back into the fold, fails here by name before a benchmark notices.

// TestDecodeAllocationsPerNode pins the objects Decode allocates for the
// encoded sweep3d and is traces at 16 ranks, class S: 5.01 and 5.16 per node
// (its line, the node, a leaf's rank set — one object, its runs, read from
// the canonical text — and one histogram per pool, the slices behind
// sequences and lists). A first-iteration pool costs one object: sweep3d's
// 777 of them are 777 of its 4,122. Checking the rules costs no object per
// node: one member list per group (9 and 16), the rank bitmap, and per
// communicator (one here) the rank set taskset.Of builds, a sorted copy and
// its runs, which also finds a repeated member. Expanding each rank set and
// packing it again allocated 10.15 and 8.50 per node, scanning each field
// with fmt 25.1 and 24.5.
func TestDecodeAllocationsPerNode(t *testing.T) {
	want := map[string]float64{"sweep3d": 4122, "is": 733}
	for _, name := range []string{"sweep3d", "is"} {
		_, tr := collectKernel(t, name, 16)
		var text bytes.Buffer
		if err := Encode(&text, tr); err != nil {
			t.Fatal(err)
		}
		// The process's first GC starts the mark workers, whose goroutines
		// are allocations too: have it run before the count, not inside it.
		runtime.GC()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Decode(bytes.NewReader(text.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		nodes := tr.NodeCount()
		t.Logf("%s@16: %d nodes, %.0f objects, %.2f per node", name, nodes, allocs, allocs/float64(nodes))
		if allocs != want[name] {
			t.Errorf("trace.decode %s@16: Decode allocates %.0f objects (%.2f per node), want %.0f",
				name, allocs, allocs/float64(nodes), want[name])
		}
	}
}

// TestMergeRankSetAllocationsPerMember pins the merge fold to one rank set per
// class member, shared by every leaf the whole class takes part in, rather
// than one per member and leaf. Every rank names one sequence of barriers
// (two loops), the shape Algorithm 1 hands the merge, so the merge clones it
// and only reads it after. 32 more leaves cost 64 more objects (a clone and
// its histogram each) at 2 members and at 16 alike; 14 more members cost 20.
// With a rank set per member and leaf, 16 members of 64 leaves took 1,110.
func TestMergeRankSetAllocationsPerMember(t *testing.T) {
	want := map[[2]int]float64{{2, 32}: 80, {2, 64}: 144, {16, 32}: 100, {16, 64}: 164}
	allocs := func(members, leaves int) float64 {
		seq := make([]Node, leaves)
		for i := range seq {
			seq[i] = mleaf(0, members, mpi.OpBarrier, uint64(i), NoParam, 0, 0, 0)
		}
		seq = []Node{&Loop{Iters: 3, Body: seq[:leaves/2]}, &Loop{Iters: 5, Body: seq[leaves/2:]}}
		seqs := make([][]Node, members)
		for r := range seqs {
			seqs[r] = seq
		}
		comms := worldComms(members)
		return testing.AllocsPerRun(5, func() { MergeRankSeqsOwned(members, comms, seqs) })
	}
	for _, members := range []int{2, 16} {
		for _, leaves := range []int{32, 64} {
			got := allocs(members, leaves)
			t.Logf("%d members, %d leaves: %.0f objects", members, leaves, got)
			if w := want[[2]int{members, leaves}]; got != w {
				t.Errorf("trace.merge rank sets: merging %d members of %d leaves allocates %.0f objects, want %.0f",
					members, leaves, got, w)
			}
		}
	}
}
