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

// TestLoweredReplayMatchesCursorWalk holds the replay's lowered programs to
// the per-event walk they replaced, for every rank of every engine-golden
// kernel: the operations rank's stream yields must equal, field by field and
// ComputeUS bit for bit, what a trace.Cursor walk of its group issues —
// RSD.PeerFor for peers, ComputeMeanAt(InnermostIter() == 0) for compute, the
// rank's entry of Counts for a Gatherv/Allgatherv and its position in the new
// communicator as a split key. trace.Cursor stays in production for
// Algorithm 2, Pinned and the MP-net lowering, so it is an oracle here, not a
// kept copy. The walk must reach the three shapes the lowering resolves ahead
// of time: a leaf after an inner loop closed inside an outer loop's body,
// whose two compute means differ; LU's wildcard receives; and the
// split-communicator ring's splits.
func TestLoweredReplayMatchesCursorWalk(t *testing.T) {
	var afterInner, wildcards, splits int
	for _, k := range goldenKernels() {
		tr, err := traceBody(k.n, netmodel.BlueGeneL(), k.body)
		if err != nil {
			t.Fatalf("%s: %v", k.key(), err)
		}
		reopened := leavesAfterInnerLoops(tr)
		streams := replay.Streams(tr)
		for rank := 0; rank < tr.N; rank++ {
			s := streams(rank)
			var got mpi.RankOp
			// A replay program has no mark instructions, so its stream never
			// reads the rank it is handed.
			c := trace.NewCursor(tr.GroupOf(rank).Seq, rank)
			for ; !c.Done(); c.Advance() {
				if !s.Next(nil, &got) {
					t.Fatalf("%s rank %d: stream ends before event %d", k.key(), rank, c.Index())
				}
				leaf := c.Cur()
				want := walkOp(tr, c, rank)
				if math.Float64bits(got.ComputeUS) != math.Float64bits(want.ComputeUS) {
					t.Fatalf("%s rank %d event %d: ComputeUS %v, the walk's %v", k.key(), rank, c.Index(), got.ComputeUS, want.ComputeUS)
				}
				got.ComputeUS, want.ComputeUS = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rank %d event %d: %+v, the walk's %+v", k.key(), rank, c.Index(), got, want)
				}
				if reopened[leaf] && leaf.ComputeMeanAt(true) != leaf.ComputeMeanAt(false) {
					afterInner++
				}
				if leaf.Peer.Kind == trace.ParamAny {
					wildcards++
				}
				if leaf.Op == mpi.OpCommSplit && leaf.NewCommID != 0 {
					splits++
				}
			}
			if s.Next(nil, &got) {
				t.Fatalf("%s rank %d: stream yields %v past the walk's %d events", k.key(), rank, got.Op, c.Index()+1)
			}
		}
	}
	t.Logf("%d events at leaves after an inner loop, %d wildcard receives, %d splits", afterInner, wildcards, splits)
	if afterInner == 0 || wildcards == 0 || splits == 0 {
		t.Errorf("the walk missed a shape: %d events after an inner loop, %d wildcard receives, %d splits", afterInner, wildcards, splits)
	}
}

// walkOp is the operation the per-event walk issues for the cursor's leaf.
func walkOp(tr *trace.Trace, c *trace.Cursor, rank int) mpi.RankOp {
	leaf := c.Cur()
	op := mpi.RankOp{Op: leaf.Op, ComputeUS: leaf.ComputeMeanAt(c.InnermostIter() == 0), Site: leaf.Site,
		CommID: leaf.CommID, Tag: leaf.Tag, Root: leaf.Root}
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
