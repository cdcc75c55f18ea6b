package mpi

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/netmodel"
)

// myCommRank returns the caller's rank within c, panicking if the caller is
// not a member (mirrors MPI's invalid-communicator error).
func (r *Rank) myCommRank(c *Comm) int {
	me, ok := c.CommRank(r.rank)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d is not a member of comm %d", r.rank, c.id))
	}
	return me
}

// costKind selects a collective cost formula in evalCollCost.
type costKind uint8

const (
	costZero     costKind = iota // completion is the arrival front (Finalize)
	costBarrier                  // model.BarrierUS(p)
	costTree                     // factor * model.CollectiveUS(p, maxContrib/div)
	costAlltoall                 // model.AlltoallUS(p, maxContrib)
)

// collCost describes a collective's cost function as plain data, not a
// closure (whose capture would allocate on every collective on every rank).
// The round hands it, together with its maximum contribution, to evalCollCost.
type collCost struct {
	kind   costKind
	p      int     // communicator size
	factor float64 // phase multiplier (2 for the all-variants)
	div    int     // contribution divisor (p for the v-variants)
}

// evalCollCost computes a round's cost from its maximum contribution. It is
// evaluated once per round by the last arriver; every formula depends only on
// the model, the communicator size and the contribution max, so the result is
// independent of which member runs it.
func evalCollCost(m *netmodel.Model, cc collCost, maxContrib int) float64 {
	switch cc.kind {
	case costBarrier:
		return m.BarrierUS(cc.p)
	case costTree:
		return cc.factor * m.CollectiveUS(cc.p, maxContrib/cc.div)
	case costAlltoall:
		return m.AlltoallUS(cc.p, maxContrib)
	}
	return 0
}

// collRound is what one rendezvous operation hands its round: the member's
// byte contribution (the round folds the maximum), the cost of the round once
// that maximum is known, and — for the two operations that create
// communicators — the key the member contributes and the function with which
// the last arriver mints the value every member leaves with.
type collRound struct {
	contrib int
	cost    collCost
	key     any
	mint    func(keys []any) any
}

// roundOf is the one table of rendezvous semantics: what each synchronizing
// operation contributes and costs. The imperative entry points below and the
// stackless executor both describe the call as a RankOp and read this table
// (and collEvent, for the traced event), so an operation is defined once.
func (r *Rank) roundOf(op *RankOp, c *Comm) collRound {
	p := c.Size()
	switch op.Op {
	case OpBarrier:
		return collRound{cost: collCost{kind: costBarrier, p: p}}
	case OpBcast, OpReduce, OpGather, OpGatherv, OpScatter:
		return collRound{contrib: op.Size, cost: collCost{kind: costTree, p: p, factor: 1, div: 1}}
	case OpAllreduce, OpAllgather, OpAllgatherv:
		return collRound{contrib: op.Size, cost: collCost{kind: costTree, p: p, factor: 2, div: 1}}
	case OpScatterv:
		return collRound{contrib: sumInts(op.Counts), cost: collCost{kind: costTree, p: p, factor: 1, div: maxInt(p, 1)}}
	case OpAlltoall:
		return collRound{contrib: op.Size, cost: collCost{kind: costAlltoall, p: p}}
	case OpAlltoallv:
		avg := 0
		if p > 0 {
			avg = sumInts(op.Counts) / p
		}
		return collRound{contrib: avg, cost: collCost{kind: costAlltoall, p: p}}
	case OpReduceScatter:
		return collRound{contrib: sumInts(op.Counts), cost: collCost{kind: costTree, p: p, factor: 2, div: maxInt(p, 1)}}
	case OpCommSplit:
		return collRound{cost: collCost{kind: costBarrier, p: p},
			key:  splitKey{color: op.SplitColor, key: op.SplitKey, worldRank: r.rank},
			mint: r.w.splitComms}
	case OpCommDup:
		w := r.w
		return collRound{cost: collCost{kind: costBarrier, p: p},
			mint: func([]any) any { return newComm(w, int(atomic.AddInt64(&w.nextCommID, 1)), c.group) }}
	case OpFinalize:
		return collRound{cost: collCost{kind: costZero}}
	}
	panic(fmt.Sprintf("mpi: %v is not a rendezvous operation", op.Op))
}

// collEvent returns the size, root and counts a rendezvous operation records
// in its traced event; me is the caller's rank in the communicator.
func collEvent(op *RankOp, me int) (size, root int, counts []int) {
	switch op.Op {
	case OpBcast, OpReduce, OpGather, OpGatherv, OpScatter:
		return op.Size, op.Root, nil
	case OpAllreduce, OpAllgather, OpAllgatherv, OpAlltoall:
		return op.Size, -1, nil
	case OpScatterv:
		mySize := 0
		if me < len(op.Counts) {
			mySize = op.Counts[me]
		}
		return mySize, op.Root, op.Counts
	case OpAlltoallv, OpReduceScatter:
		return sumInts(op.Counts), -1, op.Counts
	}
	return 0, -1, nil // Barrier, CommSplit, CommDup, Finalize
}

// splitComms mints the communicators of a CommSplit round from the members'
// splitKeys. New communicator IDs are assigned in sorted color order so that
// identical programs produce identical comm IDs run after run; trace
// comparison depends on this determinism.
func (w *World) splitComms(keys []any) any {
	groups := splitGroups(keys)
	colors := make([]int, 0, len(groups))
	for col := range groups {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	comms := make(map[int]*Comm, len(groups))
	for _, col := range colors {
		comms[col] = newComm(w, int(atomic.AddInt64(&w.nextCommID, 1)), groups[col])
	}
	return comms
}

// joinRound is the before half of every rendezvous operation, run right after
// the entry snapshot: it returns the caller's rank in c and fills *rd (the
// caller's local: as a second result it would be copied once more per
// collective) with what the caller hands the round. Finalize alone may be
// issued on a finished or poisoned rank's way out.
func (r *Rank) joinRound(c *Comm, op *RankOp, rd *collRound) (me int) {
	if op.Op != OpFinalize {
		r.checkActive()
	}
	*rd = r.roundOf(op, c)
	return r.myCommRank(c)
}

// leaveRound is the after half: the rank takes the round's completion
// clocks, picks its new communicator out of what a CommSplit/CommDup round
// minted (nil otherwise, and for a negative split color) and records the
// event. The event is built only when a tracer is attached: untraced runs pay
// the rendezvous and two clock stores, never touching the (large) Event
// struct.
func (r *Rank) leaveRound(st entryState, c *Comm, me int, op *RankOp, completion, shadowDone float64, shared any) (nc *Comm) {
	r.clock = completion
	r.shadow = shadowDone
	switch op.Op {
	case OpCommSplit:
		nc = shared.(map[int]*Comm)[op.SplitColor]
	case OpCommDup:
		nc = shared.(*Comm)
	case OpFinalize:
		r.finalized = true
	}
	if r.tracer == nil {
		r.lastOpEnd = r.clock
		return nc
	}
	ev := Event{Op: op.Op, CommID: c.id, CommSize: c.Size(), Peer: NoPeer, PeerWorld: NoPeer}
	ev.Size, ev.Root, ev.Counts = collEvent(op, me)
	if nc != nil {
		ev.Group, ev.NewCommID = nc.Group(), nc.id
	}
	r.record(st, &ev)
	return nc
}

// rendezvous issues one synchronizing operation from a rank that has a stack
// to block on: join the round, wait in seqColl.arrive until the last member
// closes it, leave. A stackless cursor runs the same two halves around a
// return to the drive loop (slExec.execRendezvous).
func (r *Rank) rendezvous(c *Comm, op *RankOp) *Comm {
	st := r.enter()
	var rd collRound
	me := r.joinRound(c, op, &rd)
	completion, shadowDone, shared := c.sync.arrive(me, op.Op, r.clock, r.shadow, rd, r.w.model)
	return r.leaveRound(st, c, me, op, completion, shadowDone, shared)
}

// Barrier blocks until every member of c has entered the barrier.
func (r *Rank) Barrier(c *Comm) { r.rendezvous(c, &RankOp{Op: OpBarrier}) }

// Bcast broadcasts size bytes from the communicator-relative root.
func (r *Rank) Bcast(c *Comm, root, size int) {
	r.rendezvous(c, &RankOp{Op: OpBcast, Root: root, Size: size})
}

// Reduce combines size bytes from every member at the root.
func (r *Rank) Reduce(c *Comm, root, size int) {
	r.rendezvous(c, &RankOp{Op: OpReduce, Root: root, Size: size})
}

// Allreduce combines size bytes from every member and distributes the result
// to all (two tree phases).
func (r *Rank) Allreduce(c *Comm, size int) { r.rendezvous(c, &RankOp{Op: OpAllreduce, Size: size}) }

// Gather collects size bytes from every member at the root.
func (r *Rank) Gather(c *Comm, root, size int) {
	r.rendezvous(c, &RankOp{Op: OpGather, Root: root, Size: size})
}

// Gatherv collects a per-rank number of bytes (this rank contributes size)
// at the root.
func (r *Rank) Gatherv(c *Comm, root, size int) {
	r.rendezvous(c, &RankOp{Op: OpGatherv, Root: root, Size: size})
}

// Allgather collects size bytes from every member at every member.
func (r *Rank) Allgather(c *Comm, size int) { r.rendezvous(c, &RankOp{Op: OpAllgather, Size: size}) }

// Allgatherv collects a per-rank number of bytes at every member.
func (r *Rank) Allgatherv(c *Comm, size int) { r.rendezvous(c, &RankOp{Op: OpAllgatherv, Size: size}) }

// Scatter distributes size bytes from the root to each member.
func (r *Rank) Scatter(c *Comm, root, size int) {
	r.rendezvous(c, &RankOp{Op: OpScatter, Root: root, Size: size})
}

// Scatterv distributes counts[i] bytes from the root to comm rank i. All
// members must pass the same counts (SPMD convention).
func (r *Rank) Scatterv(c *Comm, root int, counts []int) {
	r.rendezvous(c, &RankOp{Op: OpScatterv, Root: root, Counts: counts})
}

// Alltoall exchanges size bytes between every pair of members.
func (r *Rank) Alltoall(c *Comm, size int) { r.rendezvous(c, &RankOp{Op: OpAlltoall, Size: size}) }

// Alltoallv exchanges counts[i] bytes with comm rank i.
func (r *Rank) Alltoallv(c *Comm, counts []int) {
	r.rendezvous(c, &RankOp{Op: OpAlltoallv, Counts: counts})
}

// ReduceScatter combines counts[i] bytes across members and scatters segment
// i to comm rank i.
func (r *Rank) ReduceScatter(c *Comm, counts []int) {
	r.rendezvous(c, &RankOp{Op: OpReduceScatter, Counts: counts})
}

// CommSplit partitions c into disjoint communicators by color, ordering each
// new communicator by (key, world rank), per MPI_Comm_split. A negative
// color opts out and returns nil.
func (r *Rank) CommSplit(c *Comm, color, key int) *Comm {
	return r.rendezvous(c, &RankOp{Op: OpCommSplit, SplitColor: color, SplitKey: key})
}

// CommDup duplicates c: a new communicator with identical membership.
func (r *Rank) CommDup(c *Comm) *Comm { return r.rendezvous(c, &RankOp{Op: OpCommDup}) }

// Finalize synchronizes all world ranks and marks the rank finished. The
// paper's algorithms treat MPI_Finalize as a collective over the world
// communicator; so does this runtime. Run calls Finalize automatically if
// the body did not.
func (r *Rank) Finalize() {
	if !r.finalized {
		r.rendezvous(r.w.commWorld, &RankOp{Op: OpFinalize})
	}
}

func sumInts(vs []int) int {
	t := 0
	for _, v := range vs {
		t += v
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
