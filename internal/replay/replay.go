// Package replay is the reproduction's ScalaReplay: it re-executes a
// compressed communication trace on the simulated MPI runtime, issuing the
// recorded operations with the recorded compute times. Section 5.2 of the
// paper replays both the original application's trace and the generated
// benchmark's trace to compare them free of spurious structural differences;
// Equivalent implements that comparison.
//
// A replayed rank is a flat, pre-known operation sequence, which is exactly
// the shape the event engine's stackless representation wants: Replay
// compiles each rank into an OpStream cursor driven without a goroutine or
// stack, which removes the per-rank stack footprint and handoff cost at
// large world sizes. Per event the stream walks the trace cursor one leaf on
// and fills the executor's RankOp in place (mpi.OpStream's contract); the
// leaf's peer, v-collective contribution and split key are translated through
// Trace.CommRankOf — an indexed lookup, a bounds check on the world
// communicator — and the requests the executor creates are recycled at each
// completed drain. Every re-issued operation carries the trace's recorded
// call site, so a replay under a Collector re-traces with the original sites.
package replay

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Replay executes the trace on n simulated ranks, each a stackless cursor on
// the event engine, and returns the runtime's result. Extra mpi options
// (tracers, profilers, timeouts, a pooled engine) may be supplied —
// replaying under a Collector yields a re-trace.
func Replay(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	return mpi.RunStackless(t.N, model, func(rank int) mpi.OpStream {
		return newCursorStream(t, rank)
	}, opts...)
}

// cursorStream feeds one rank's trace walk to the stackless executor,
// translating each leaf into a RankOp on demand. The executor owns all
// execution state (communicator table, outstanding requests); the stream
// only resolves per-leaf parameters — peers, v-collective contributions,
// split colors.
type cursorStream struct {
	t *trace.Trace
	c *trace.Cursor
}

func newCursorStream(t *trace.Trace, rank int) *cursorStream {
	s := &cursorStream{t: t}
	if g := t.GroupOf(rank); g != nil {
		s.c = trace.NewCursor(g.Seq, rank)
	}
	return s
}

// Next implements mpi.OpStream.
func (s *cursorStream) Next(r *mpi.Rank, op *mpi.RankOp) bool {
	if s.c == nil || s.c.Done() {
		return false
	}
	leaf := s.c.Cur()
	first := s.c.InnermostIter() == 0
	s.c.Advance()
	s.translate(op, leaf, first, r.Rank())
	return true
}

// translate fills *op for one leaf. The slot is zeroed and then assigned
// field by field: a composite literal with computed fields would be built in
// a temporary and copied over.
func (s *cursorStream) translate(op *mpi.RankOp, leaf *trace.RSD, first bool, rank int) {
	*op = mpi.RankOp{}
	op.Op = leaf.Op
	op.ComputeUS = leaf.ComputeMeanAt(first)
	op.Site = leaf.Site
	op.CommID = leaf.CommID
	op.Tag = leaf.Tag
	op.Root = leaf.Root
	switch leaf.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpWait, mpi.OpWaitall:
		// Compute (and, for the drains, the outstanding set) only.
	case mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv:
		op.Size = leaf.Size
		if leaf.Peer.Kind == trace.ParamAny {
			op.Peer = mpi.AnySource
		} else {
			op.Peer = leaf.PeerFor(rank, s.t)
		}
	case mpi.OpGatherv, mpi.OpAllgatherv:
		// These wrappers take this rank's contribution, not the vector.
		op.Size = mySizeOf(s.t, leaf, rank)
	case mpi.OpScatterv, mpi.OpAlltoallv, mpi.OpReduceScatter:
		op.Counts = leaf.Counts
	case mpi.OpCommSplit:
		op.SplitColor, op.SplitKey = splitArgs(s.t, leaf, rank)
		op.NewCommID = leaf.NewCommID
	case mpi.OpCommDup:
		op.NewCommID = leaf.NewCommID
	default:
		// Fixed-size collectives: Barrier, Bcast, Reduce, Allreduce,
		// Gather, Allgather, Scatter, Alltoall.
		op.Size = leaf.Size
	}
}

// splitArgs returns the color and key that reproduce a recorded split:
// members of the same new communicator share a color, and the recorded group
// order is reproduced through the key — the rank's position in the new group.
// A leaf that minted nothing (NewCommID 0) replays as MPI_UNDEFINED.
func splitArgs(t *trace.Trace, leaf *trace.RSD, rank int) (color, key int) {
	if leaf.NewCommID == 0 {
		return -1, 0
	}
	if i, ok := t.CommRankOf(leaf.NewCommID, rank); ok {
		key = i
	}
	return leaf.NewCommID, key
}

// mySizeOf returns rank's contribution for a v-collective leaf: its
// comm-rank entry of Counts when present, the (possibly averaged) Size
// otherwise.
func mySizeOf(t *trace.Trace, leaf *trace.RSD, rank int) int {
	if len(leaf.Counts) > 0 {
		if me, ok := t.CommRankOf(leaf.CommID, rank); ok && me < len(leaf.Counts) {
			return leaf.Counts[me]
		}
	}
	return leaf.Size
}
