package mpi

import (
	"fmt"
	"hash/fnv"

	"repro/internal/netmodel"
)

// This file is the stackless rank representation: phase 2 of the event
// engine. A coroutine rank costs a goroutine — a stack that grows to the
// body's deepest frame and two coroutine switches per event — per rank,
// per world. For arbitrary imperative bodies that cost is irreducible (the
// continuation lives on the stack), but replay and generated-benchmark
// bodies are restricted: each rank is a flat, pre-known sequence of MPI
// operations. Such a sequence compiles into a cursor — an op index plus a
// small resume tag — that the drive loop advances with a method call: no
// goroutine, no stack, no switch. Blocking points return to the drive loop
// with the rank registered on the structure it waits on (the same
// registrations a coroutine rank makes), and the wake pushes it back onto
// the identical (clock, rank)-keyed run queue, so the dispatch order — and
// therefore every virtual clock, every wildcard match, every trace byte — is
// the one a coroutine rank issuing the same operations would produce.
//
// Every blocking operation is defined once, by an exec function of this file
// (execSend, execRecv, execDrain, execRendezvous). A cursor runs it from step
// and, where it parks, returns to the drive loop. A coroutine rank's public
// entry point describes its call as a RankOp and runs the same function
// through Rank.issue, which blocks where the cursor would return and re-tests
// the same predicate (tryResume) on every wake. TestCollectivesRun and
// TestPointToPointRun hold the two entry paths to identical events and
// clocks.

// RankOp is one operation of a stackless rank body: the op code, the
// compute phase preceding it, and the operation's resolved parameters.
// Peer is communicator-relative (AnySource allowed); Root likewise. For
// v-collectives whose public call takes a per-member size (Gatherv,
// Allgatherv), Size carries this rank's contribution and Counts stays nil;
// for those taking the full vector (Scatterv, Alltoallv, ReduceScatter),
// Counts carries it. Site is the call-site hash to stamp on the traced
// event (ignored when the run is untraced).
type RankOp struct {
	Op        Op
	ComputeUS float64
	Site      uint64
	CommID    int
	Peer      int
	Tag       int
	Size      int
	Root      int
	Counts    []int
	// NewCommID, SplitColor and SplitKey parameterize OpCommSplit (color,
	// key, and the ID under which the minted communicator is registered for
	// later ops) and OpCommDup (NewCommID only).
	NewCommID  int
	SplitColor int
	SplitKey   int
}

// OpStream feeds one rank's operation sequence to the stackless executor.
// Next is called once per operation, on the engine's goroutine, with the
// rank about to issue it (streams may consult r.Rank() or r.Clock()) and the
// executor's own op slot to fill in place (a RankOp is 112 bytes; returned
// by value through the interface it is copied twice per event). The
// contract: a stream that returns true has overwritten every field of *op
// (assign a whole RankOp, then adjust) — the slot still holds the previous
// operation — and must not retain op; returning false ends the body, and
// the executor never reads *op after it. Streams are single-use per run.
type OpStream interface {
	Next(r *Rank, op *RankOp) bool
}

// endDrainSite is the call-site hash stamped on the implicit end-of-body
// Waitall that drains requests left outstanding when a stream ends. (The
// value spells "enddrain".)
const endDrainSite uint64 = 0x656e64647261696e

// rankMainSite is the call-site hash of the Init and Finalize events every
// rank opens and closes with: callSite() truncates its stack walk at rankMain,
// so at that depth it hashes zero frames — the FNV-1a offset basis. Both rank
// representations stamp the constant rather than walk an empty stack.
var rankMainSite = fnv.New64a().Sum64()

// slExec phases: a cursor runs Init, then its stream, then the implicit
// end-of-body drain, then Finalize.
const (
	phInit uint8 = iota
	phStream
	phEndDrain
	phFinalize
	phDone
)

// slExec wait registrations: what an exec function parked on when it
// returned without finishing its operation (to the drive loop, or to
// Rank.issue, which blocks the coroutine).
const (
	pendNone uint8 = iota
	// pendMatch: a posted receive awaiting its matching deposit
	// (predicate: pendP.msg != nil).
	pendMatch
	// pendCredit: a sender stalled on flow control (predicate: the rank's
	// cwDone flag, set by the receiver's releasing drain).
	pendCredit
	// pendColl: parked on a collective round (predicate: the rendezvous
	// generation has advanced past pendGen).
	pendColl
)

// slExec is one rank's executor: for a stackless rank, the cursor the drive
// loop advances in place of a rank goroutine; for a coroutine rank (stream
// nil), the state of the blocking operation Rank.issue runs. All fields are
// touched only under the engine's execution discipline (one rank steps at a
// time), so none need locks.
type slExec struct {
	stream OpStream
	// comms maps stream communicator IDs to live communicators, made on the
	// first one minted; unknown IDs fall back to the world.
	comms map[int]*Comm
	// outstanding accumulates nonblocking requests between drains.
	outstanding []*Request

	phase uint8
	// op is the operation in flight; hasOp distinguishes "mid-operation"
	// (resuming after a park) from "fetch the next one".
	op    RankOp
	hasOp bool
	// stage is the operation's resume point; wstage/widx position the
	// Waitall drain within its per-request passes.
	stage  uint8
	wstage uint8
	widx   int

	// st is the entry snapshot of the operation in flight; c its
	// communicator, resolved by whoever filled op; me this rank's comm rank
	// in c; wdst the send target's world rank; sm the blocking send's
	// message, held until the send completes; rp the blocking receive in
	// flight; rsrc/rtag/rsize the last blocking receive's matched sender
	// (a world rank), tag and size (Rank.Recv builds its Status from them);
	// nc the communicator the last rendezvous minted for this rank;
	// wCommID/wCommSize the drain's running event attribution (last request
	// wins).
	st        entryState
	c         *Comm
	me        int
	wdst      int
	sm        *message
	rp        *postedRecv
	rsrc      int
	rtag      int
	rsize     int
	nc        *Comm
	wCommID   int
	wCommSize int

	// Park registration (see the pend constants).
	pend    uint8
	pendP   *postedRecv
	pendCS  *seqColl
	pendGen uint64
}

// init arms an executor for one run, retaining its grown containers: the
// outstanding slice keeps its capacity (pointers cleared so a pooled world
// does not pin the previous run's requests) and the comm table keeps its
// buckets.
func (x *slExec) init(s OpStream) {
	outstanding := x.outstanding
	clear(outstanding[:cap(outstanding)])
	comms := x.comms
	clear(comms)
	*x = slExec{stream: s, outstanding: outstanding[:0], comms: comms}
}

// comm resolves a stream communicator ID, falling back to the world
// communicator for unknown IDs (the replayer's convention).
func (x *slExec) comm(r *Rank, id int) *Comm {
	if c, ok := x.comms[id]; ok {
		return c
	}
	return r.w.commWorld
}

// tryResume checks the parked wait's predicate. A false return means the
// wake was spurious: the rank stays parked (re-registering on a round) and
// blocks again — the drive loop re-blocks a cursor, Rank.issue a coroutine.
// A true return completes the wait's bookkeeping and hands control back to
// the operation's resume stage.
func (x *slExec) tryResume(r *Rank) bool {
	switch x.pend {
	case pendMatch:
		if x.pendP.msg == nil {
			return false
		}
		x.pendP = nil
	case pendCredit:
		if !r.cwDone {
			return false
		}
		r.chargeCreditStall(r.cwResume)
	case pendColl:
		if x.pendCS.gen == x.pendGen {
			// Round not closed yet: re-register before blocking again (a
			// duplicate entry's second wake is a no-op).
			x.pendCS.park(x.me)
			return false
		}
		x.pendCS = nil
	}
	x.pend = pendNone
	return true
}

// step advances the cursor until it finishes (true) or parks (false).
func (x *slExec) step(r *Rank) (done bool) {
	if x.pend != pendNone && !x.tryResume(r) {
		return false
	}
	for {
		switch x.phase {
		case phInit:
			r.recordInit()
			x.phase = phStream
		case phStream:
			if !x.hasOp {
				if !x.stream.Next(r, &x.op) {
					x.phase = phEndDrain
					continue
				}
				x.hasOp = true
				x.stage = 0
				x.wstage = 0
				x.c = x.comm(r, x.op.CommID)
			}
			if x.execOp(r) {
				return false
			}
			x.hasOp = false
		case phEndDrain:
			// rankMain analog: replay bodies drain leftover requests before
			// returning so Finalize can complete.
			if !x.hasOp {
				if len(x.outstanding) == 0 {
					x.phase = phFinalize
					continue
				}
				x.op = RankOp{Op: OpWaitall, Site: endDrainSite}
				x.hasOp = true
				x.stage = 0
				x.wstage = 0
			}
			if x.execOp(r) {
				return false
			}
			x.hasOp = false
			x.phase = phFinalize
		case phFinalize:
			// rankMain's Finalize, stamped with the same site.
			if !x.hasOp {
				x.op = RankOp{Op: OpFinalize, Site: rankMainSite}
				x.c = r.w.commWorld
				x.hasOp = true
				x.stage = 0
			}
			if x.execRendezvous(r) {
				return false
			}
			x.phase = phDone
		case phDone:
			return true
		}
	}
}

// execOp runs (or resumes) the operation in flight, returning true if it
// parked. Nonblocking operations call the public Rank methods; blocking ones
// run their exec function.
func (x *slExec) execOp(r *Rank) (parked bool) {
	op := &x.op
	switch op.Op {
	case OpInit:
		// Init is implicit (recorded by phInit); the leaf carries compute only.
		r.Compute(op.ComputeUS)
	case OpSend:
		return x.execSend(r)
	case OpIsend:
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.outstanding = append(x.outstanding, r.Isend(x.c, op.Peer, op.Tag, op.Size))
	case OpRecv:
		return x.execRecv(r)
	case OpIrecv:
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.outstanding = append(x.outstanding, r.Irecv(x.c, op.Peer, op.Tag, op.Size))
	case OpWait, OpWaitall, OpFinalize:
		// All three drain the outstanding set (a Finalize leaf drains so the
		// runtime's own Finalize — phFinalize — can complete), and all record
		// as Waitall, exactly as a replay body calling Waitall would. With
		// nothing outstanding the leaf is compute-only, as a replay body skips
		// the call entirely.
		if x.stage == 0 {
			r.Compute(op.ComputeUS)
			if len(x.outstanding) == 0 {
				return false
			}
			op.Op = OpWaitall
		}
		if x.execDrain(r, x.outstanding) {
			return true
		}
		// Everything outstanding is complete and nothing else holds the
		// requests: the rank's request arena starts over (see rewindRequests).
		clear(x.outstanding)
		x.outstanding = x.outstanding[:0]
		r.rewindRequests()
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpGatherv,
		OpAllgather, OpAllgatherv, OpScatter, OpScatterv, OpAlltoall,
		OpAlltoallv, OpReduceScatter, OpCommSplit, OpCommDup:
		return x.execRendezvous(r)
	default:
		panic(fmt.Sprintf("mpi: stackless rank %d: unsupported op %v", r.rank, op.Op))
	}
	return false
}

// execSend is a blocking send: inject, then park while the receiver holds
// more than the credit window of this rank's messages.
func (x *slExec) execSend(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = r.enter(op.Site)
		x.wdst = x.c.WorldRank(op.Peer)
		x.sm = r.inject(x.c, x.wdst, op.Tag, op.Size)
		x.stage = 1
		if x.parkOnCredit(r, r.w.mailboxes[x.wdst], x.sm) {
			return true
		}
	}
	// Stage 1 resumes here with the credit stall's clock advance already
	// applied by tryResume. The send is complete: the sender lets go of its
	// message.
	r.releaseMessage(x.sm)
	x.sm = nil
	if r.traced() {
		r.record(x.st, &Event{Op: OpSend, CommID: x.c.id, CommSize: x.c.Size(),
			Peer: op.Peer, PeerWorld: x.wdst, Tag: op.Tag, Size: op.Size, Root: -1})
	}
	return false
}

// parkOnCredit models MPI flow control for msg, just injected or waited on:
// while its receiver mb holds more than the credit window of the sender's
// undrained messages (msg among them), the sender registers as the source
// slot's creditWaiter and parks until a drain releases it.
func (x *slExec) parkOnCredit(r *Rank, mb *mailbox, msg *message) bool {
	window := r.w.model.CreditWindow
	if window <= 0 || msg.drained {
		return false
	}
	s := mb.slot(msg.src)
	if s.inflight <= window {
		return false
	}
	r.cwDone = false
	r.cwResume = 0
	s.credit = creditWaiter{rank: int32(msg.src), window: int32(window), msg: msg}
	x.pend = pendCredit
	return true
}

// execRecv is a blocking receive: post, then park until a deposit matches.
func (x *slExec) execRecv(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = r.enter(op.Site)
		wsrc := op.Peer
		if wsrc != AnySource {
			wsrc = x.c.WorldRank(op.Peer)
		}
		p := r.postRecv(x.c, wsrc, op.Tag)
		x.rp = p
		// Fast path: the message was already queued and post consumed it, so
		// there is nothing to wait for.
		if !r.w.mailboxes[r.rank].post(p) {
			x.stage = 1
			x.pend = pendMatch
			x.pendP = p
			return true
		}
	}
	x.rsrc, x.rtag, x.rsize = r.completeRecv(x.rp)
	x.rp = nil
	if r.traced() {
		r.record(x.st, &Event{Op: OpRecv, CommID: x.c.id, CommSize: x.c.Size(),
			Peer: op.Peer, PeerWorld: x.rsrc, SourceWasWildcard: op.Peer == AnySource,
			Tag: op.Tag, Size: op.Size, Root: -1})
	}
	return false
}

// execDrain completes reqs and records x.op.Op over them, sized by their
// count and attributed to the last request's communicator. Receives complete
// first, then sends, so that flow-control credit is returned before send
// stalls are served: an MPI progress engine's order, which avoids artificial
// deadlock between mutually stalled senders. It parks on a receive not yet
// matched and on a send stalled for credit; reqs must be the same set on
// every call of one drain.
func (x *slExec) execDrain(r *Rank, reqs []*Request) bool {
	if x.stage == 0 {
		r.checkActive()
		x.st = r.enter(x.op.Site)
		x.wCommID, x.wCommSize = 0, r.w.n
		x.widx = 0
		x.wstage = 0
		x.stage = 1
	}
	if x.stage == 1 {
		for x.widx < len(reqs) {
			q := reqs[x.widx]
			if q.pr != nil { // a receive not yet complete
				if q.pr.msg == nil {
					x.pend = pendMatch
					x.pendP = q.pr
					return true
				}
				src, tag, size := r.completeRecv(q.pr)
				q.src, q.tag, q.size = int32(src), tag, size
				q.pr, q.done = nil, true
			}
			x.wCommID, x.wCommSize = q.comm.id, q.comm.Size()
			x.widx++
		}
		x.widx = 0
		x.stage = 2
	}
	for x.widx < len(reqs) {
		q := reqs[x.widx]
		if q.msg != nil { // a send not yet complete
			if x.wstage == 0 && x.parkOnCredit(r, r.w.mailboxes[q.msg.dst], q.msg) {
				x.wstage = 1
				return true
			}
			r.releaseMessage(q.msg)
			q.msg, q.done = nil, true
			x.wstage = 0
		}
		x.widx++
	}
	if r.traced() {
		r.record(x.st, &Event{Op: x.op.Op, CommID: x.wCommID, CommSize: x.wCommSize,
			Peer: NoPeer, PeerWorld: NoPeer, Size: len(reqs), Root: -1})
	}
	return false
}

// execRendezvous runs any synchronizing operation — the collectives,
// CommSplit, CommDup, the runtime's own Finalize — on x.c: join the round,
// arrive, and either close the round (last member) or park until tryResume
// sees the generation advance; then leave. The communicator a CommSplit or
// CommDup round minted for this rank is left in x.nc, and registered under
// the stream's ID for later operations.
func (x *slExec) execRendezvous(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		x.st = r.enter(op.Site)
		var rd collRound
		x.me = r.joinRound(x.c, op, &rd)
		cs := x.c.sync
		myGen, last := cs.arriveRound(x.me, op.Op, r.clock, r.shadow, rd.contrib, rd.key)
		x.stage = 1
		if !last {
			cs.park(x.me)
			x.pend = pendColl
			x.pendCS = cs
			x.pendGen = myGen
			return true
		}
		cs.closeRound(r.w.model, &rd)
	}
	cs := x.c.sync
	x.nc = r.leaveRound(x.st, x.c, x.me, op, cs.completion, cs.shadowCompletion, cs.shared)
	if x.nc != nil && op.NewCommID != 0 {
		if x.comms == nil {
			x.comms = make(map[int]*Comm, 2)
		}
		x.comms[op.NewCommID] = x.nc
	}
	return false
}

// stepCursor advances one cursor, absorbing rank panics exactly as runBody
// does for coroutine ranks.
func (e *eventLoop) stepCursor(i int32) {
	r := &e.ranks[i]
	defer func() {
		if p := recover(); p != nil {
			e.notePanic(r, p)
			e.state[i] = rsDone
			e.nLive--
		}
	}()
	if e.cursors[i].step(r) {
		e.state[i] = rsDone
		e.nLive--
	} else {
		e.state[i] = rsBlocked
	}
}

// issue runs one blocking operation of a coroutine rank: op on c, through
// exec, the same function a cursor runs for it, on the rank's executor.
// Where exec parks, the coroutine blocks in place of returning to the drive
// loop, and every wake re-tests the parked predicate with tryResume, as the
// drive loop does for a cursor. It returns the executor, which holds what
// the operation leaves for its caller (execRecv's receive, execRendezvous's
// minted communicator).
func (r *Rank) issue(c *Comm, op *RankOp, exec func(*slExec, *Rank) bool) *slExec {
	e := r.w.sched
	x := &e.cursors[r.rank]
	x.op, x.c = *op, c
	x.stage, x.wstage = 0, 0
	parked := exec(x, r)
	for parked {
		e.block(int32(r.rank))
		if x.tryResume(r) {
			parked = exec(x, r)
		}
	}
	return x
}

// RunStackless executes one stackless body per rank: progFor is called once
// per rank for its operation stream. All options (tracers, contexts,
// WithEngine pooling) behave as in Run, and the results are those of an
// imperative body issuing the same operations. Its outcomes are Run's:
// completion, a rank panic, a proven deadlock or cancellation of the
// caller's context, and without a cancellable context it starts no
// goroutine at all.
func RunStackless(n int, model *netmodel.Model, progFor func(rank int) OpStream, opts ...Option) (*Result, error) {
	return runWorld(n, model, nil, progFor, opts)
}
