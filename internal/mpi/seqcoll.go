package mpi

import (
	"fmt"

	"repro/internal/netmodel"
)

// seqColl is the event engine's collSync: the same rendezvous algebra as
// lockedColl — identical max-folds, identical completion formulas, so every
// virtual clock is bit-identical — with the mutex, condition variable and
// broadcast storm replaced by the scheduler's block/wake protocol. Only one
// rank runs at a time under the event engine, so the round state needs no
// synchronization at all: a non-last arriver registers itself as waiting
// and returns control to the driver; the last arriver closes the round and
// pushes every waiter back onto the run queue.
//
// The arrival bookkeeping and the round close are split-phase (arriveRound/
// closeRound): a coroutine rank parks in await between the two (arrive), a
// stackless cursor parks by returning to the drive loop and polls the
// generation on wake (slExec.execRendezvous).
type seqColl struct {
	e *eventLoop
	// members maps comm rank -> world rank, so a waiter can identify itself
	// to the scheduler.
	members []int

	gen        uint64
	arrived    int
	maxClock   float64
	maxShadow  float64
	op         Op
	keys       []any // per-comm-rank keys (CommSplit rounds), allocated on first use
	maxContrib int   // running max contribution

	// waiting lists the world ranks parked on the current round. Spurious
	// wakes (a deposit on a waiter's mailbox, say) may re-append a rank; the
	// duplicate wake is a no-op in the scheduler.
	waiting []int32

	// Results of the completed round, readable until the next round ends. A
	// later round cannot complete without every waiter of this round
	// arriving again, so once gen advances these still belong to our round.
	completion       float64
	shadowCompletion float64
	shared           any

	// profArrive collects the current round's arrivals (world rank, clock,
	// call site) when the run is causally profiled; the round close turns
	// them into one DepColl record per member and resets the slice.
	profArrive []collArrival
}

// collArrival is one profiled rendezvous arrival.
type collArrival struct {
	world int32
	clock float64
	site  uint64
}

func newSeqColl(e *eventLoop, members []int) *seqColl {
	return &seqColl{e: e, members: members}
}

// reset clears all round state for the next run on a pooled world. Only
// safe after the previous run has quiesced (no rank can be parked on a
// round).
func (cs *seqColl) reset() {
	cs.gen = 0
	cs.arrived = 0
	cs.maxClock = 0
	cs.maxShadow = 0
	cs.op = 0
	clear(cs.keys)
	cs.maxContrib = 0
	cs.waiting = cs.waiting[:0]
	cs.completion = 0
	cs.shadowCompletion = 0
	cs.shared = nil
	cs.profArrive = cs.profArrive[:0]
}

// noteArrival records one member's profiled arrival on the current round.
func (cs *seqColl) noteArrival(commRank int, clock float64) {
	world := int32(cs.members[commRank])
	r := cs.e.rank(world)
	if r.w.prof == nil {
		return
	}
	cs.profArrive = append(cs.profArrive, collArrival{world: world, clock: clock, site: r.curSite})
}

// profClose emits one DepColl record per member of the just-closed round.
// From is the round's last arriver under the deterministic rule (max
// arrival clock, lowest world rank breaking ties), so the blame assignment
// is identical no matter which representation drove the dispatch order.
// Must run after the round's completion is computed and before finishRound
// invalidates the round state.
func (cs *seqColl) profClose() {
	if len(cs.profArrive) == 0 {
		return
	}
	g := cs.e.rank(cs.profArrive[0].world).w.prof
	from := cs.profArrive[0]
	for _, a := range cs.profArrive[1:] {
		if a.clock > from.clock || (a.clock == from.clock && a.world < from.world) {
			from = a
		}
	}
	for _, a := range cs.profArrive {
		g.add(DepRecord{Kind: DepColl, Op: cs.op, Rank: a.world, From: from.world,
			Site: a.site, Start: a.clock, Ready: cs.maxClock, End: cs.completion,
			FromClock: cs.maxClock})
	}
	cs.profArrive = cs.profArrive[:0]
}

// arriveRound performs one member's arrival bookkeeping and reports the round
// generation the caller joined and whether its arrival was the last.
func (cs *seqColl) arriveRound(commRank int, op Op, clock, shadow float64, contrib int, key any) (myGen uint64, last bool) {
	myGen = cs.gen
	if cs.arrived == 0 {
		cs.op = op
		cs.maxClock = clock
		cs.maxShadow = shadow
		cs.maxContrib = 0
	} else if cs.op != op {
		panic(fmt.Sprintf("mpi: collective mismatch: rank %d called %v while round started with %v", commRank, op, cs.op))
	} else {
		if clock > cs.maxClock {
			cs.maxClock = clock
		}
		if shadow > cs.maxShadow {
			cs.maxShadow = shadow
		}
	}
	if contrib > cs.maxContrib {
		cs.maxContrib = contrib
	}
	if key != nil {
		if cs.keys == nil {
			cs.keys = make([]any, len(cs.members))
		}
		cs.keys[commRank] = key
	}
	cs.arrived++
	cs.noteArrival(commRank, clock)
	return myGen, cs.arrived == len(cs.members)
}

// closeRound completes the round: the last arriver, whose collRound rd is,
// computes the results and releases every waiter.
func (cs *seqColl) closeRound(m *netmodel.Model, rd *collRound) {
	cs.completion = cs.maxClock + evalCollCost(m, rd.cost, cs.maxContrib)
	cs.shadowCompletion = cs.maxShadow + (cs.completion - cs.maxClock)
	cs.shared = nil
	if rd.mint != nil {
		cs.shared = rd.mint(cs.keys)
		clear(cs.keys)
	}
	cs.profClose()
	cs.finishRound()
}

// arrive implements collSync for a rank with a stack to park on.
func (cs *seqColl) arrive(commRank int, op Op, clock, shadow float64, rd collRound,
	m *netmodel.Model) (float64, float64, any) {
	myGen, last := cs.arriveRound(commRank, op, clock, shadow, rd.contrib, rd.key)
	if last {
		cs.closeRound(m, &rd)
	} else {
		cs.await(myGen, commRank)
	}
	return cs.completion, cs.shadowCompletion, cs.shared
}

// finishRound advances the generation and releases every waiter onto the
// run queue. Resetting waiting before the wakes is safe: the woken ranks
// cannot run (and so cannot re-park) until the current rank returns
// control to the driver.
func (cs *seqColl) finishRound() {
	cs.gen++
	cs.arrived = 0
	waiting := cs.waiting
	cs.waiting = cs.waiting[:0]
	for _, wr := range waiting {
		cs.e.wake(wr)
	}
}

// park registers the caller as waiting on the current round; await and the
// stackless executor call it before every return to the driver.
func (cs *seqColl) park(commRank int) {
	cs.waiting = append(cs.waiting, int32(cs.members[commRank]))
}

// await parks the caller until the round it joined completes.
func (cs *seqColl) await(myGen uint64, commRank int) {
	for cs.gen == myGen {
		cs.park(commRank)
		cs.e.block(int32(cs.members[commRank]))
	}
}
