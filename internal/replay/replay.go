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
// completed drain. ReplayReference keeps the imperative coroutine replayer
// for differential testing (its requests belong to the body and live to the
// end of the run); both resolve leaf parameters through the same helpers and
// stamp the trace's recorded call sites onto the re-issued operations, so
// they re-trace byte-identically.
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
// replaying under a Collector yields a re-trace. Asking for the goroutine
// runtime is an error (mpi.RunStackless).
func Replay(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	return mpi.RunStackless(t.N, model, func(rank int) mpi.OpStream {
		return newCursorStream(t, rank)
	}, opts...)
}

// ReplayReference is Replay on imperative rank bodies (the replayer below)
// under whichever runtime the options select. It exists for the differential
// suite, which requires byte-identical re-traces and clocks from Replay,
// ReplayReference on the event engine and ReplayReference on the goroutine
// runtime; no production caller uses it.
func ReplayReference(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	// The communicator table's final size is known up front (world plus every
	// traced communicator), and a handful of outstanding requests is the norm
	// for traced codes; pre-sizing both keeps the replay loop allocation-free.
	nComms := 1 + len(t.Comms)
	body := func(r *mpi.Rank) {
		rp := &replayer{t: t, rank: r,
			comms:       make(map[int]*mpi.Comm, nComms),
			outstanding: make([]*mpi.Request, 0, 16),
		}
		rp.comms[0] = r.World()
		g := t.GroupOf(r.Rank())
		if g == nil {
			return
		}
		for c := trace.NewCursor(g.Seq, r.Rank()); !c.Done(); c.Advance() {
			rp.play(c.Cur(), c.InnermostIter() == 0)
		}
		if len(rp.outstanding) > 0 {
			r.SetCallSite(mpi.EndDrainSite)
			r.Waitall(rp.outstanding...)
		}
	}
	return mpi.Run(t.N, model, body, opts...)
}

// cursorStream feeds one rank's trace walk to the stackless executor,
// translating each leaf into a RankOp on demand. The executor owns all
// execution state (communicator table, outstanding requests); the stream
// only resolves per-leaf parameters — peers, v-collective contributions,
// split colors — exactly as the coroutine replayer does before its calls.
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

// translate fills *op for one leaf, mirroring the argument resolution in
// replayer.play leaf for leaf. The slot is zeroed and then assigned field by
// field: a composite literal with computed fields would be built in a
// temporary and copied over.
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

type replayer struct {
	t           *trace.Trace
	rank        *mpi.Rank
	comms       map[int]*mpi.Comm
	outstanding []*mpi.Request
}

// comm returns the live communicator for a trace comm ID, falling back to
// the world communicator for unknown IDs.
func (rp *replayer) comm(id int) *mpi.Comm {
	if c, ok := rp.comms[id]; ok {
		return c
	}
	return rp.rank.World()
}

// peer resolves the RSD's peer parameter for this rank within the given
// communicator.
func (rp *replayer) peer(leaf *trace.RSD) int {
	if leaf.Peer.Kind == trace.ParamAny {
		return mpi.AnySource
	}
	return leaf.PeerFor(rp.rank.Rank(), rp.t)
}

// play issues one leaf. Every issuing call is preceded by SetCallSite so the
// re-traced event carries the source trace's site rather than this file's
// stack hash; leaves that issue no call (Init, an empty drain) stamp
// nothing, leaving the implicit Init/Finalize events their rankMain site.
func (rp *replayer) play(leaf *trace.RSD, firstIter bool) {
	rp.rank.Compute(leaf.ComputeMeanAt(firstIter))
	c := rp.comm(leaf.CommID)
	switch leaf.Op {
	case mpi.OpInit:
		// Init is implicit in the runtime.
	case mpi.OpFinalize:
		// Finalize is issued by the runtime after the body returns; drain
		// outstanding requests so it can complete.
		if len(rp.outstanding) > 0 {
			rp.rank.SetCallSite(leaf.Site)
			rp.rank.Waitall(rp.outstanding...)
			rp.outstanding = rp.outstanding[:0]
		}
	case mpi.OpSend:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Send(c, rp.peer(leaf), leaf.Tag, leaf.Size)
	case mpi.OpIsend:
		rp.rank.SetCallSite(leaf.Site)
		rp.outstanding = append(rp.outstanding, rp.rank.Isend(c, rp.peer(leaf), leaf.Tag, leaf.Size))
	case mpi.OpRecv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Recv(c, rp.peer(leaf), leaf.Tag, leaf.Size)
	case mpi.OpIrecv:
		rp.rank.SetCallSite(leaf.Site)
		rp.outstanding = append(rp.outstanding, rp.rank.Irecv(c, rp.peer(leaf), leaf.Tag, leaf.Size))
	case mpi.OpWait, mpi.OpWaitall:
		if len(rp.outstanding) > 0 {
			rp.rank.SetCallSite(leaf.Site)
			rp.rank.Waitall(rp.outstanding...)
			rp.outstanding = rp.outstanding[:0]
		}
	case mpi.OpBarrier:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Barrier(c)
	case mpi.OpBcast:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Bcast(c, leaf.Root, leaf.Size)
	case mpi.OpReduce:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Reduce(c, leaf.Root, leaf.Size)
	case mpi.OpAllreduce:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allreduce(c, leaf.Size)
	case mpi.OpGather:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Gather(c, leaf.Root, leaf.Size)
	case mpi.OpGatherv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Gatherv(c, leaf.Root, mySizeOf(rp.t, leaf, rp.rank.Rank()))
	case mpi.OpAllgather:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allgather(c, leaf.Size)
	case mpi.OpAllgatherv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Allgatherv(c, mySizeOf(rp.t, leaf, rp.rank.Rank()))
	case mpi.OpScatter:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Scatter(c, leaf.Root, leaf.Size)
	case mpi.OpScatterv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Scatterv(c, leaf.Root, leaf.Counts)
	case mpi.OpAlltoall:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Alltoall(c, leaf.Size)
	case mpi.OpAlltoallv:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.Alltoallv(c, leaf.Counts)
	case mpi.OpReduceScatter:
		rp.rank.SetCallSite(leaf.Site)
		rp.rank.ReduceScatter(c, leaf.Counts)
	case mpi.OpCommSplit:
		color, key := splitArgs(rp.t, leaf, rp.rank.Rank())
		rp.rank.SetCallSite(leaf.Site)
		if sub := rp.rank.CommSplit(c, color, key); sub != nil && leaf.NewCommID != 0 {
			rp.comms[leaf.NewCommID] = sub
		}
	case mpi.OpCommDup:
		rp.rank.SetCallSite(leaf.Site)
		sub := rp.rank.CommDup(c)
		if leaf.NewCommID != 0 {
			rp.comms[leaf.NewCommID] = sub
		}
	}
}
