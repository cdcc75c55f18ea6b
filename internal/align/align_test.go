package align

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
	"repro/internal/trace"
)

func collect(t testing.TB, n int, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

// figure3Body reproduces the paper's Figure 3(a): ranks invoke the same
// logical barrier from different source lines, so the trace records it at
// two call sites.
func figure3Body(r *mpi.Rank) {
	if r.Rank() == 0 {
		r.Compute(10)
		r.Barrier(r.World()) // call site A
	} else {
		r.Compute(30)
		r.Barrier(r.World()) // call site B
	}
	r.Send(r.World(), (r.Rank()+1)%r.Size(), 0, 64)
	r.Recv(r.World(), (r.Rank()+r.Size()-1)%r.Size(), 0, 64)
}

func TestNeededDetectsSplitCollective(t *testing.T) {
	tr := collect(t, 4, figure3Body)
	if !Needed(tr) {
		t.Fatalf("alignment not flagged for Figure 3 pattern:\n%s", tr)
	}
}

func TestNeededFalseForUniformCollectives(t *testing.T) {
	tr := collect(t, 4, func(r *mpi.Rank) {
		r.Barrier(r.World())
		r.Allreduce(r.World(), 8)
	})
	if Needed(tr) {
		t.Fatalf("alignment flagged for already-aligned trace:\n%s", tr)
	}
}

func TestNeededIgnoresCommSplitLeaves(t *testing.T) {
	// A split leaf legitimately lists only its color's members; it must not
	// trigger alignment by itself.
	tr := &trace.Trace{
		N:     4,
		Comms: map[int][]int{0: {0, 1, 2, 3}, 1: {0, 2}},
		Groups: []trace.Group{{Ranks: taskset.Range(0, 3), Seq: []trace.Node{
			&trace.RSD{Op: mpi.OpCommSplit, Ranks: taskset.Of(0, 2), CommID: 0,
				CommSize: 4, NewCommID: 1, Group: []int{0, 2}, Root: -1},
			&trace.RSD{Op: mpi.OpBarrier, Ranks: taskset.Range(0, 3), CommID: 0,
				CommSize: 4, Root: -1},
		}}},
	}
	if Needed(tr) {
		t.Fatalf("CommSplit wrongly treated as unaligned:\n%s", tr)
	}
}

func TestNeededTrueForSplitPrograms(t *testing.T) {
	// A program whose ranks take different paths produces multiple behaviour
	// groups, so even its Finalize is recorded with partial rank sets and
	// alignment is required before generation.
	tr := collect(t, 4, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		r.Barrier(sub)
	})
	if !Needed(tr) {
		t.Fatalf("multi-group trace should need alignment:\n%s", tr)
	}
	if _, err := Align(tr); err != nil {
		t.Fatalf("Align: %v", err)
	}
}

func TestAlignFigure3(t *testing.T) {
	n := 4
	tr := collect(t, n, figure3Body)
	aligned, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if len(aligned.Groups) != 1 {
		t.Fatalf("aligned trace has %d groups, want 1", len(aligned.Groups))
	}
	// Exactly one Barrier RSD, carrying all ranks (plus Init/Finalize).
	var barriers []*trace.RSD
	trace.Leaves(aligned.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpBarrier {
			barriers = append(barriers, r)
		}
	})
	if len(barriers) != 1 {
		t.Fatalf("aligned trace has %d barrier RSDs, want 1:\n%s", len(barriers), aligned)
	}
	if !barriers[0].Ranks.Equal(taskset.Range(0, n-1)) {
		t.Fatalf("barrier ranks = %v, want all", barriers[0].Ranks)
	}
	// The pooled compute time is the mean of per-site means (10 and 30...).
	mean := barriers[0].ComputeMean()
	if mean < 10 || mean > 30 {
		t.Fatalf("pooled compute mean = %v, want within [10,30]", mean)
	}
}

func TestAlignPreservesPerRankOrderAndCounts(t *testing.T) {
	n := 6
	body := func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 7; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 128)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 128)
			r.Waitall(rq, sq)
			if r.Rank()%2 == 0 {
				r.Allreduce(c, 8) // site A
			} else {
				r.Allreduce(c, 8) // site B
			}
		}
	}
	tr := collect(t, n, body)
	if !Needed(tr) {
		t.Fatal("test premise: trace should need alignment")
	}
	aligned, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	// Guarantee 2: per-rank event order preserved.
	for rank := 0; rank < n; rank++ {
		orig := tr.EventsOf(rank)
		al := aligned.EventsOf(rank)
		if len(orig) != len(al) {
			t.Fatalf("rank %d: %d events originally, %d aligned", rank, len(orig), len(al))
		}
		for i := range orig {
			if orig[i].Op != al[i].Op || orig[i].Size != al[i].Size || orig[i].Tag != al[i].Tag {
				t.Fatalf("rank %d event %d changed: %v -> %v", rank, i, orig[i], al[i])
			}
		}
	}
	// Guarantee 1: one RSD per logical collective (7 allreduces + finalize).
	count := 0
	trace.Leaves(aligned.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpAllreduce {
			if !r.Ranks.Equal(taskset.Range(0, n-1)) {
				t.Fatalf("allreduce ranks = %v", r.Ranks)
			}
			count++
		}
	})
	total := 0
	walkLoops(aligned.Groups[0].Seq, 1, func(r *trace.RSD, mult int) {
		if r.Op == mpi.OpAllreduce {
			total += mult
		}
	})
	if total != 7 {
		t.Fatalf("aligned trace expands to %d allreduce instances, want 7", total)
	}
}

// walkLoops visits leaves with their loop multiplicity.
func walkLoops(seq []trace.Node, mult int, f func(*trace.RSD, int)) {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.RSD:
			f(x, mult)
		case *trace.Loop:
			walkLoops(x.Body, mult*x.Iters, f)
		}
	}
}

// Guarantee 3: the aligned trace is recompressed — loop structure survives.
func TestAlignOutputStaysCompressed(t *testing.T) {
	n := 4
	iters := 500
	body := func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Barrier(c)
			} else {
				r.Barrier(c)
			}
		}
	}
	tr := collect(t, n, body)
	aligned, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if nodes := aligned.NodeCount(); nodes > 20 {
		t.Fatalf("aligned trace has %d nodes for %d iterations; compression failed:\n%s",
			nodes, iters, aligned)
	}
}

func TestAlignSubcommunicatorCollectives(t *testing.T) {
	n := 8
	body := func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, 0)
		// Members of a sub-communicator reach the same reduce from
		// different lines.
		if r.Rank() < 4 {
			r.Reduce(sub, 0, 256)
		} else {
			r.Reduce(sub, 0, 256)
		}
	}
	tr := collect(t, n, body)
	aligned, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	var reduces []*trace.RSD
	trace.Leaves(aligned.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpReduce {
			reduces = append(reduces, r)
		}
	})
	if len(reduces) != 2 {
		t.Fatalf("got %d reduce RSDs, want 2 (one per subcomm):\n%s", len(reduces), aligned)
	}
	for _, r := range reduces {
		if r.Ranks.Size() != 4 {
			t.Fatalf("subcomm reduce covers %d ranks, want 4", r.Ranks.Size())
		}
	}
}

func TestAlignAveragesVariableContributions(t *testing.T) {
	n := 4
	body := func(r *mpi.Rank) {
		// Gatherv-like: each rank contributes a different volume, and two
		// call sites split the collective.
		size := 100 * (r.Rank() + 1)
		if r.Rank() == 0 {
			r.Gatherv(r.World(), 0, size)
		} else {
			r.Gatherv(r.World(), 0, size)
		}
	}
	tr := collect(t, n, body)
	aligned, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	var gatherv *trace.RSD
	trace.Leaves(aligned.Groups[0].Seq, func(r *trace.RSD) {
		if r.Op == mpi.OpGatherv {
			gatherv = r
		}
	})
	if gatherv == nil {
		t.Fatal("no gatherv leaf in aligned trace")
	}
	if gatherv.Size != 250 { // (100+200+300+400)/4
		t.Fatalf("averaged size = %d, want 250", gatherv.Size)
	}
	want := []int{100, 200, 300, 400}
	if len(gatherv.Counts) != len(want) {
		t.Fatalf("per-member counts = %v", gatherv.Counts)
	}
	for i := range want {
		if gatherv.Counts[i] != want[i] {
			t.Fatalf("per-member counts = %v, want %v", gatherv.Counts, want)
		}
	}
}

func TestAlignDetectsMismatchedCollectives(t *testing.T) {
	// Construct a pathological trace by hand: rank 0 calls Barrier while
	// rank 1 calls Allreduce on the same communicator.
	tr := &trace.Trace{
		N:     2,
		Comms: map[int][]int{0: {0, 1}},
		Groups: []trace.Group{
			{Ranks: taskset.Of(0), Seq: []trace.Node{
				&trace.RSD{Op: mpi.OpBarrier, Ranks: taskset.Of(0), CommID: 0, CommSize: 2, Root: -1},
			}},
			{Ranks: taskset.Of(1), Seq: []trace.Node{
				&trace.RSD{Op: mpi.OpAllreduce, Ranks: taskset.Of(1), CommID: 0, CommSize: 2, Size: 8, Root: -1},
			}},
		},
	}
	if _, err := Align(tr); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want collective mismatch", err)
	}
}

func TestAlignDetectsStuckTraversal(t *testing.T) {
	// Rank 1 never reaches the barrier rank 0 waits in.
	tr := &trace.Trace{
		N:     2,
		Comms: map[int][]int{0: {0, 1}},
		Groups: []trace.Group{
			{Ranks: taskset.Of(0), Seq: []trace.Node{
				&trace.RSD{Op: mpi.OpBarrier, Ranks: taskset.Of(0), CommID: 0, CommSize: 2, Root: -1},
			}},
			{Ranks: taskset.Of(1), Seq: []trace.Node{
				&trace.RSD{Op: mpi.OpSend, Ranks: taskset.Of(1), CommID: 0, CommSize: 2,
					Peer: trace.AbsParam(0), Size: 4, Root: -1},
			}},
		},
	}
	if _, err := Align(tr); err == nil {
		t.Fatal("expected stuck-traversal error")
	}
}

func TestAlignIdempotentOnAlignedTrace(t *testing.T) {
	n := 4
	tr := collect(t, n, figure3Body)
	once, err := Align(tr)
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	twice, err := Align(once)
	if err != nil {
		t.Fatalf("second Align: %v", err)
	}
	if once.TotalEvents() != twice.TotalEvents() {
		t.Fatalf("re-alignment changed event count: %d -> %d",
			once.TotalEvents(), twice.TotalEvents())
	}
	for rank := 0; rank < n; rank++ {
		a, b := once.EventsOf(rank), twice.EventsOf(rank)
		if len(a) != len(b) {
			t.Fatalf("rank %d: %d vs %d events", rank, len(a), len(b))
		}
		for i := range a {
			if a[i].Op != b[i].Op {
				t.Fatalf("rank %d event %d: %v vs %v", rank, i, a[i].Op, b[i].Op)
			}
		}
	}
}

func TestAlignPropertyPreservesOpMultisets(t *testing.T) {
	// Property: for random mixes of split-call-site collectives and
	// point-to-point traffic, alignment preserves each rank's operation
	// multiset exactly.
	f := func(nRaw, itersRaw uint8) bool {
		n := int(nRaw%5) + 2
		iters := int(itersRaw%4) + 1
		col := trace.NewCollector(n)
		body := func(r *mpi.Rank) {
			c := r.World()
			for i := 0; i < iters; i++ {
				rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 64)
				sq := r.Isend(c, (r.Rank()+1)%n, 0, 64)
				r.Waitall(rq, sq)
				if r.Rank()%2 == 0 {
					r.Allreduce(c, 8) // even call site
				} else {
					r.Allreduce(c, 8) // odd call site
				}
			}
		}
		if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
			return false
		}
		tr := col.Trace()
		aligned, err := Align(tr)
		if err != nil {
			return false
		}
		for rank := 0; rank < n; rank++ {
			a := opCounts(tr.EventsOf(rank))
			b := opCounts(aligned.EventsOf(rank))
			if len(a) != len(b) {
				return false
			}
			for op, c := range a {
				if b[op] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func opCounts(evs []*trace.RSD) map[mpi.Op]int {
	m := map[mpi.Op]int{}
	for _, ev := range evs {
		m[ev.Op]++
	}
	return m
}

func TestAlignRejectsCollectiveOmittingItsCaller(t *testing.T) {
	// Rank 0 calls a barrier on a communicator that lists only ranks 1 and
	// 2: the rendezvous has no slot for it.
	barrier := func(rank, comm, size int) []trace.Node {
		return []trace.Node{&trace.RSD{Op: mpi.OpBarrier, Ranks: taskset.Of(rank), CommID: comm, CommSize: size, Root: -1}}
	}
	tr := &trace.Trace{
		N:     3,
		Comms: map[int][]int{0: {0, 1, 2}, 1: {1, 2}},
		Groups: []trace.Group{
			{Ranks: taskset.Of(0), Seq: barrier(0, 1, 2)},
			{Ranks: taskset.Of(1), Seq: barrier(1, 1, 2)},
			{Ranks: taskset.Of(2), Seq: barrier(2, 1, 2)},
		},
	}
	if _, err := Align(tr); err == nil || !strings.Contains(err.Error(), "without being a member") {
		t.Fatalf("err = %v, want a membership error", err)
	}
}
