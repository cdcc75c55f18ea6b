package repro

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// TestLoweredReplayMatchesCursorWalk holds the lowered programs replay runs,
// and the trace.Cursor that walks them for Algorithms 1 and 2, Pinned and the
// MP-net lowering, to a reference expansion kept in this test (refWalk), for
// every rank of every engine-golden kernel. The operations rank's stream
// yields must equal, field by field and ComputeUS bit for bit, what the
// reference's leaves issue — RSD.PeerFor for peers, the first-iteration pool
// in the first iteration of the innermost loop, the rank's entry of Counts
// for a Gatherv/Allgatherv and its position in the new communicator as a
// split key — and the cursor must stand at the reference's leaf (the same
// pointer) with its ordinal and that compute sample. The walk must reach the
// three shapes the lowering resolves ahead of time: a leaf after an inner
// loop closed inside an outer loop's body, whose two compute means differ;
// LU's wildcard receives; and the split-communicator ring's splits.
func TestLoweredReplayMatchesCursorWalk(t *testing.T) {
	var afterInner, wildcards, splits int
	for _, k := range goldenKernels() {
		tr, err := traceBody(k.n, netmodel.BlueGeneL(), k.body)
		if err != nil {
			t.Fatalf("%s: %v", k.key(), err)
		}
		reopened := leavesAfterInnerLoops(tr)
		streams, low := replay.Streams(tr), trace.Lower(tr)
		for rank := 0; rank < tr.N; rank++ {
			s, c, i := streams(rank), low.Cursor(rank), 0
			var got mpi.RankOp
			refWalk(tr.GroupOf(rank).Seq, rank, true, func(leaf *trace.RSD, first bool) {
				// A replay program has no mark instructions, so its stream
				// never reads the rank it is handed.
				if !s.Next(nil, &got) {
					t.Fatalf("%s rank %d: stream ends before event %d", k.key(), rank, i)
				}
				want := refOp(tr, leaf, first, rank)
				if math.Float64bits(got.ComputeUS) != math.Float64bits(want.ComputeUS) {
					t.Fatalf("%s rank %d event %d: ComputeUS %v, the reference's %v", k.key(), rank, i, got.ComputeUS, want.ComputeUS)
				}
				if c.Cur() != leaf || c.Index() != i || math.Float64bits(c.ComputeUS()) != math.Float64bits(want.ComputeUS) {
					t.Fatalf("%s rank %d event %d: cursor at %v (index %d, ComputeUS %v), the reference's %v (ComputeUS %v)",
						k.key(), rank, i, c.Cur(), c.Index(), c.ComputeUS(), leaf, want.ComputeUS)
				}
				got.ComputeUS, want.ComputeUS = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rank %d event %d: %+v, the reference's %+v", k.key(), rank, i, got, want)
				}
				if reopened[leaf] && leaf.FirstComputeMean() != leaf.ComputeMean() {
					afterInner++
				}
				if leaf.Peer.Kind == trace.ParamAny {
					wildcards++
				}
				if leaf.Op == mpi.OpCommSplit && leaf.NewCommID != 0 {
					splits++
				}
				c.Advance()
				i++
			})
			if s.Next(nil, &got) {
				t.Fatalf("%s rank %d: stream yields %v past the reference's %d events", k.key(), rank, got.Op, i)
			}
			if !c.Done() {
				t.Fatalf("%s rank %d: cursor yields %v past the reference's %d events", k.key(), rank, c.Cur(), i)
			}
		}
	}
	t.Logf("%d events at leaves after an inner loop, %d wildcard receives, %d splits", afterInner, wildcards, splits)
	if afterInner == 0 || wildcards == 0 || splits == 0 {
		t.Errorf("the walk missed a shape: %d events after an inner loop, %d wildcard receives, %d splits", afterInner, wildcards, splits)
	}
}

// refWalk is the reference expansion of rank's events in seq: every leaf
// holding rank in order, loops unrolled, each with whether its innermost
// enclosing loop is in its first iteration (first holds outside every loop).
func refWalk(seq []trace.Node, rank int, first bool, yield func(leaf *trace.RSD, first bool)) {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.RSD:
			if x.Ranks.Contains(rank) {
				yield(x, first)
			}
		case *trace.Loop:
			for i := 0; i < x.Iters && trace.ContainsRank(x, rank); i++ {
				refWalk(x.Body, rank, i == 0, yield)
			}
		}
	}
}

// refOp is the operation rank issues for leaf, in the first iteration of its
// innermost loop or not.
func refOp(tr *trace.Trace, leaf *trace.RSD, first bool, rank int) mpi.RankOp {
	op := mpi.RankOp{Op: leaf.Op, ComputeUS: leaf.ComputeMean(), Site: leaf.Site,
		CommID: leaf.CommID, Tag: leaf.Tag, Root: leaf.Root}
	if first {
		op.ComputeUS = leaf.FirstComputeMean()
	}
	switch leaf.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpWait, mpi.OpWaitall:
	case mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv:
		op.Size, op.Peer = leaf.Size, leaf.PeerFor(rank, tr)
	case mpi.OpGatherv, mpi.OpAllgatherv:
		op.Size = leaf.Size
		if me, ok := tr.CommRankOf(leaf.CommID, rank); ok && me < len(leaf.Counts) {
			op.Size = leaf.Counts[me]
		}
	case mpi.OpScatterv, mpi.OpAlltoallv, mpi.OpReduceScatter:
		op.Counts = leaf.Counts
	case mpi.OpCommSplit:
		op.SplitColor, op.NewCommID = -1, leaf.NewCommID
		if leaf.NewCommID != 0 {
			op.SplitColor = leaf.NewCommID
			op.SplitKey, _ = tr.CommRankOf(leaf.NewCommID, rank)
			op.SplitKey = max(op.SplitKey, 0)
		}
	case mpi.OpCommDup:
		op.NewCommID = leaf.NewCommID
	default:
		op.Size = leaf.Size
	}
	return op
}

// leavesAfterInnerLoops returns the leaves that follow a nested loop inside a
// loop body: at them a cursor's innermost loop is the outer one again.
func leavesAfterInnerLoops(tr *trace.Trace) map[*trace.RSD]bool {
	out := map[*trace.RSD]bool{}
	var visit func(seq []trace.Node, inLoop bool)
	visit = func(seq []trace.Node, inLoop bool) {
		closed := false
		for _, n := range seq {
			switch x := n.(type) {
			case *trace.RSD:
				if inLoop && closed {
					out[x] = true
				}
			case *trace.Loop:
				visit(x.Body, true)
				closed = true
			}
		}
	}
	for _, g := range tr.Groups {
		visit(g.Seq, false)
	}
	return out
}
