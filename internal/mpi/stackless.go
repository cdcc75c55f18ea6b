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
// Synchronizing operations are defined once: a cursor and the imperative API
// both run Rank.joinRound and Rank.leaveRound over the table in
// collectives.go, and differ only in how they wait between the two. The
// point-to-point operations (execSend, execRecv, execDrain) are the cursor's
// own: they make Rank.Send/Recv/Waitall's calls in the same order — inject,
// postRecv, completeRecv, chargeCreditStall — with each blocking wait
// (stallForCredit, awaitMatch) replaced by a park whose predicate tryResume
// tests. That copy is deliberate: it is the hot path of every replayed event.
// The golden digests of testdata/engine_golden.json, recorded while a
// coroutine replayer still ran beside the cursors and agreed with them, hold
// it to its traces and clocks.

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

// slExec wait registrations: what the cursor is parked on when it returns
// to the drive loop without finishing its current operation.
const (
	pendNone uint8 = iota
	// pendMatch: a posted receive awaiting its matching deposit
	// (awaitMatch's predicate: pendP.msg != nil).
	pendMatch
	// pendCredit: a sender stalled on flow control (awaitCredit's
	// predicate: the rank's cwDone flag).
	pendCredit
	// pendColl: parked on a collective round (await's predicate: the
	// rendezvous generation has advanced past pendGen).
	pendColl
)

// slExec is one stackless rank: the cursor the drive loop advances in place
// of a rank goroutine. All fields are touched only under the engine's
// execution discipline (one rank steps at a time), so none need locks.
type slExec struct {
	stream OpStream
	// comms maps stream communicator IDs to live communicators; unknown IDs
	// fall back to the world.
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

	// st is the entry snapshot of the operation in flight; c its resolved
	// communicator; me this rank's comm rank in c; wdst the send target's
	// world rank; rp the blocking receive in flight; wCommID/wCommSize the
	// drain's running event attribution (last request wins, as in Waitall).
	st        entryState
	c         *Comm
	me        int
	wdst      int
	rp        *postedRecv
	wCommID   int
	wCommSize int

	// Park registration (see the pend constants).
	pend    uint8
	pendP   *postedRecv
	pendCS  *seqColl
	pendGen uint64
}

// init arms a cursor for one run, retaining its grown containers: the
// outstanding slice keeps its capacity (pointers cleared so a pooled world
// does not pin the previous run's requests) and the comm table keeps its
// buckets.
func (x *slExec) init(s OpStream) {
	outstanding := x.outstanding
	clear(outstanding[:cap(outstanding)])
	comms := x.comms
	if comms == nil {
		comms = make(map[int]*Comm, 2)
	} else {
		clear(comms)
	}
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
// wake was spurious: the cursor stays parked (re-registering where the
// coroutine loop would) and the drive loop re-blocks it. A true return
// completes the wait's bookkeeping — exactly what the tail of the
// corresponding coroutine wait (awaitMatch, awaitCredit, await) performs —
// and hands control back to the operation's resume stage.
func (x *slExec) tryResume(r *Rank) bool {
	switch x.pend {
	case pendMatch:
		p := x.pendP
		if p.msg == nil {
			return false
		}
		r.w.mailboxes[r.rank].noteConsumed(p)
		x.pendP = nil
	case pendCredit:
		if !r.cwDone {
			return false
		}
		r.chargeCreditStall(r.cwResume)
	case pendColl:
		if x.pendCS.gen == x.pendGen {
			// Round not closed yet: re-register, as await's loop re-appends
			// before every block.
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
// return to the drive loop where those would wait.
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
		x.outstanding = append(x.outstanding, r.Isend(x.comm(r, op.CommID), op.Peer, op.Tag, op.Size))
	case OpRecv:
		return x.execRecv(r)
	case OpIrecv:
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.outstanding = append(x.outstanding, r.Irecv(x.comm(r, op.CommID), op.Peer, op.Tag, op.Size))
	case OpWait, OpWaitall, OpFinalize:
		// All three drain the outstanding set (a Finalize leaf drains so the
		// runtime's own Finalize — phFinalize — can complete), and all record
		// as Waitall, exactly as a replay body calling Waitall would.
		return x.execDrain(r)
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpGatherv,
		OpAllgather, OpAllgatherv, OpScatter, OpScatterv, OpAlltoall,
		OpAlltoallv, OpReduceScatter, OpCommSplit, OpCommDup:
		return x.execRendezvous(r)
	default:
		panic(fmt.Sprintf("mpi: stackless rank %d: unsupported op %v", r.rank, op.Op))
	}
	return false
}

// execSend is a blocking send; it parks where Rank.Send stalls for credit.
func (x *slExec) execSend(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		x.wdst = c.WorldRank(op.Peer)
		msg := r.inject(x.wdst, op.Tag, op.Size)
		m := r.w.model
		if window := m.CreditWindow; window > 0 {
			s := r.w.mailboxes[x.wdst].slot(msg.src)
			if !msg.drained && s.inflight > window {
				r.cwDone = false
				r.cwResume = 0
				s.credit = creditWaiter{rank: int32(msg.src), window: int32(window), msg: msg}
				x.stage = 1
				x.pend = pendCredit
				return true
			}
		}
	}
	// Stage 1 resumes here with the credit stall's clock advance already
	// applied by tryResume.
	r.record(x.st, &Event{Op: OpSend, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: op.Peer, PeerWorld: x.wdst, Tag: op.Tag, Size: op.Size, Root: -1})
	return false
}

// execRecv is a blocking receive; it parks where Rank.Recv awaits its match.
func (x *slExec) execRecv(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		c := x.comm(r, op.CommID)
		x.c = c
		wsrc := op.Peer
		if wsrc != AnySource {
			wsrc = c.WorldRank(op.Peer)
		}
		p := r.postRecv(wsrc, op.Tag)
		x.rp = p
		if !r.w.mailboxes[r.rank].post(p) {
			x.stage = 1
			x.pend = pendMatch
			x.pendP = p
			return true
		}
	}
	p := x.rp
	r.completeRecv(p)
	r.record(x.st, &Event{Op: OpRecv, CommID: x.c.id, CommSize: x.c.Size(),
		Peer: op.Peer, PeerWorld: p.msg.src, SourceWasWildcard: op.Peer == AnySource,
		Tag: op.Tag, Size: op.Size, Root: -1})
	x.rp = nil
	return false
}

// execDrain is a Waitall over the outstanding set. With nothing outstanding
// the leaf is compute-only, as a replay body skips the call entirely.
// Otherwise it makes Rank.Waitall's two passes (receives first, then sends),
// parking where Rank.wait would block on a match or on credit.
func (x *slExec) execDrain(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		if len(x.outstanding) == 0 {
			return false
		}
		r.checkActive()
		x.st = entryState{start: r.clock, compute: r.clock - r.lastOpEnd, site: op.Site}
		r.noteSite(op.Site)
		x.wCommID, x.wCommSize = 0, r.w.n
		x.widx = 0
		x.wstage = 0
		x.stage = 1
	}
	if x.stage == 1 {
		// First pass: complete receives (returning flow-control credit
		// before send stalls are served).
		for x.widx < len(x.outstanding) {
			q := x.outstanding[x.widx]
			if q.op == OpIrecv && !q.done {
				if x.wstage == 0 {
					if !q.pr.fastMatched {
						if q.pr.msg == nil {
							x.wstage = 1
							x.pend = pendMatch
							x.pendP = q.pr
							return true
						}
						r.w.mailboxes[r.rank].noteConsumed(q.pr)
					}
					x.wstage = 1
				}
				r.completeRecv(q.pr)
				q.done = true
				x.wstage = 0
			}
			x.wCommID, x.wCommSize = q.comm.id, q.comm.Size()
			x.widx++
		}
		x.widx = 0
		x.stage = 2
	}
	// Second pass: complete sends.
	for x.widx < len(x.outstanding) {
		q := x.outstanding[x.widx]
		if q.op != OpIrecv && !q.done {
			if x.wstage == 0 {
				m := r.w.model
				if window := m.CreditWindow; window > 0 {
					s := q.dst.slot(q.msg.src)
					if !q.msg.drained && s.inflight > window {
						r.cwDone = false
						r.cwResume = 0
						s.credit = creditWaiter{rank: int32(q.msg.src), window: int32(window), msg: q.msg}
						x.wstage = 1
						x.pend = pendCredit
						return true
					}
				}
			}
			q.done = true
			x.wstage = 0
		}
		x.widx++
	}
	r.record(x.st, &Event{Op: OpWaitall, CommID: x.wCommID, CommSize: x.wCommSize,
		Peer: NoPeer, PeerWorld: NoPeer, Size: len(x.outstanding), Root: -1})
	// Everything outstanding is complete and nothing else holds the requests:
	// the rank's request arena starts over (see rewindRequests).
	clear(x.outstanding)
	x.outstanding = x.outstanding[:0]
	r.rewindRequests()
	return false
}

// execRendezvous runs any synchronizing operation — the collectives,
// CommSplit, CommDup, the runtime's own Finalize — as Rank.rendezvous does,
// with the wait inside seqColl.arrive replaced by a park on the round: join,
// arrive, and either close the round (last member) or return to the drive
// loop until tryResume sees the generation advance; then leave. A minted
// communicator is registered under the stream's ID for later operations.
func (x *slExec) execRendezvous(r *Rank) bool {
	op := &x.op
	if x.stage == 0 {
		r.Compute(op.ComputeUS)
		r.SetCallSite(op.Site)
		x.st = r.enter()
		x.c = x.comm(r, op.CommID)
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
	nc := r.leaveRound(x.st, x.c, x.me, op, cs.completion, cs.shadowCompletion, cs.shared)
	if nc != nil && op.NewCommID != 0 {
		x.comms[op.NewCommID] = nc
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

// RunStackless executes one stackless body per rank: progFor is called once
// per rank for its operation stream. All options (tracers, timeouts,
// contexts, WithEngine pooling) behave as in Run, and the results are those
// of an imperative body issuing the same operations.
func RunStackless(n int, model *netmodel.Model, progFor func(rank int) OpStream, opts ...Option) (*Result, error) {
	return runWorld(n, model, nil, progFor, opts)
}
