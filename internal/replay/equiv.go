package replay

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// normEvent is the normalized view of one event used for trace-equivalence
// comparison: what the communication *does*, independent of call sites,
// compression structure, wait granularity and communicator bookkeeping.
type normEvent struct {
	op        mpi.Op
	size      int
	peerWorld int
	commKey   string
}

// Equivalent compares two traces per rank on their normalized event
// streams, the Section 5.2 criterion ("the semantics of each of the original
// applications was precisely reproduced"). Differences in call-site
// signatures, loop structure, Wait-vs-Waitall granularity, and communicator
// management are ignored; operations, sizes, resolved peers and collective
// participant sets must match. It returns nil when equivalent and a
// descriptive error naming the first divergence otherwise.
func Equivalent(a, b *trace.Trace) error {
	if a.N != b.N {
		return fmt.Errorf("replay: rank counts differ: %d vs %d", a.N, b.N)
	}
	for rank := 0; rank < a.N; rank++ {
		ea := normalize(a, rank)
		eb := normalize(b, rank)
		limit := len(ea)
		if len(eb) < limit {
			limit = len(eb)
		}
		for i := 0; i < limit; i++ {
			if ea[i] != eb[i] {
				return fmt.Errorf("replay: rank %d event %d differs: %v/%d bytes/peer %d/%s vs %v/%d bytes/peer %d/%s",
					rank, i,
					ea[i].op, ea[i].size, ea[i].peerWorld, ea[i].commKey,
					eb[i].op, eb[i].size, eb[i].peerWorld, eb[i].commKey)
			}
		}
		if len(ea) != len(eb) {
			return fmt.Errorf("replay: rank %d event counts differ: %d vs %d", rank, len(ea), len(eb))
		}
	}
	return nil
}

// normalize expands one rank's events, dropping bookkeeping operations,
// resolving peers to world ranks, and folding the Table 1 collective
// substitutions so an original application's stream compares equal to its
// generated benchmark's.
func normalize(t *trace.Trace, rank int) []normEvent {
	var out []normEvent
	for _, leaf := range t.EventsOf(rank) {
		switch leaf.Op {
		case mpi.OpInit, mpi.OpFinalize, mpi.OpCommSplit, mpi.OpCommDup,
			mpi.OpWait, mpi.OpWaitall, mpi.OpBarrier:
			// Bookkeeping / pure synchronization: barriers are compared by
			// participant set only, appended below for OpBarrier.
			if leaf.Op != mpi.OpBarrier {
				continue
			}
			out = append(out, normEvent{op: mpi.OpBarrier, commKey: commKey(t, leaf)})
		case mpi.OpGather, mpi.OpGatherv:
			// Table 1: Gather(v) -> REDUCE.
			out = append(out, normEvent{op: mpi.OpReduce, size: leaf.Size, commKey: commKey(t, leaf)})
		case mpi.OpScatter, mpi.OpScatterv:
			// Table 1: Scatter(v) -> MULTICAST.
			out = append(out, normEvent{op: mpi.OpBcast, size: leaf.MeanCount(), commKey: commKey(t, leaf)})
		case mpi.OpAllgather, mpi.OpAllgatherv:
			// Table 1: Allgather(v) -> REDUCE + MULTICAST.
			out = append(out,
				normEvent{op: mpi.OpReduce, size: leaf.Size, commKey: commKey(t, leaf)},
				normEvent{op: mpi.OpBcast, size: leaf.Size, commKey: commKey(t, leaf)})
		case mpi.OpAlltoallv:
			// Table 1: Alltoallv -> MULTICAST (alltoall) with averaged size.
			out = append(out, normEvent{op: mpi.OpAlltoall, size: leaf.PerPeerSize(), commKey: commKey(t, leaf)})
		case mpi.OpReduceScatter:
			// Table 1: Reduce_scatter -> one rooted REDUCE per member.
			group := t.CommGroup(leaf.CommID)
			for i := range group {
				out = append(out, normEvent{op: mpi.OpReduce, size: leaf.SegmentSize(i, len(group)), commKey: commKey(t, leaf)})
			}
		case mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv:
			op := leaf.Op
			// Blocking and nonblocking variants move the same data.
			if op == mpi.OpIsend {
				op = mpi.OpSend
			}
			if op == mpi.OpIrecv {
				op = mpi.OpRecv
			}
			out = append(out, normEvent{op: op, size: leaf.Size, peerWorld: leaf.WorldPeerFor(rank, t)})
		default:
			out = append(out, normEvent{op: leaf.Op, size: leaf.Size, commKey: commKey(t, leaf)})
		}
	}
	return out
}

// commKey identifies a collective's participant set independent of comm IDs.
func commKey(t *trace.Trace, leaf *trace.RSD) string {
	group := t.CommGroup(leaf.CommID)
	if len(group) == 0 {
		return leaf.Ranks.String()
	}
	return fmt.Sprint(group)
}
