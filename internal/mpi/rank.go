package mpi

import (
	"fmt"
	"math"
)

// Rank is one simulated MPI process. All methods must be called from the
// rank's own goroutine (the body function passed to Run).
type Rank struct {
	w         *World
	rank      int
	clock     float64 // virtual microseconds
	lastOpEnd float64
	tracer    Tracer
	// scratch is the Event handed to the tracer, refilled for every traced
	// operation (see Tracer); allocated on the first one, so untraced ranks
	// carry only the nil pointer.
	scratch *Event
	// sites is this rank's front of the process-wide call-site cache (see
	// callSite): raw PC hash to signature, filled on the rank's first visit
	// of each call path. Signatures are process-stable, so it survives reset.
	sites map[uint64]uint64
	// mainDepth is the length of the stack walk that has reached rankMain on
	// this rank so far (see callSite); like sites it survives reset.
	mainDepth int
	finalized bool

	// Allocation arenas: messages, posted receives and requests are carved
	// from per-rank chunks so the point-to-point hot path allocates once per
	// chunk of operations instead of once per operation. Messages and posted
	// receives are never recycled within a run (their lifetimes escape
	// through mailboxes), and neither are the requests of a coroutine rank
	// (application code holds them); those arenas only batch the allocations.
	// A stackless rank's requests are recycled at every completed drain (see
	// rewindRequests). The chunk is retained and its cursor rewound when a
	// pooled world is reset, so warm runs whose per-rank operation count fits
	// the grown chunk allocate nothing at all. Chunks grow arenaChunkMin ->
	// arenaChunkMax so a million-rank world with a handful of ops per rank
	// does not strand arenaChunkMax entries per arena per rank.
	msgChunk  []message
	msgUsed   int
	recvChunk []postedRecv
	recvUsed  int
	reqChunk  []Request
	reqUsed   int

	// shadow is a parallel clock that advances exactly like clock except
	// that congestion stalls (burst throttling, flow-control resume) never
	// touch it: the timeline the application would follow on an unsaturated
	// network. Burst throttling measures per-destination offered gaps on
	// this timeline, so the penalty reflects the application's offered load
	// rather than its own stalled schedule (which would otherwise feed back
	// into the measurement).
	shadow float64
	// opCount numbers this rank's operations for the deterministic noise
	// stream.
	opCount uint64
	// cwDone/cwResume carry a flow-control release from the draining
	// receiver back to this rank when it is parked as a creditWaiter (event
	// engine only): cwResume is the drain clock that freed the stall. Both
	// are written by the releasing rank and read here, ordered by the
	// scheduler's driver ↔ rank switches.
	cwDone   bool
	cwResume float64
	// cwFrom is the world rank of the receiver whose drain released this
	// rank's last flow-control stall (written by releaseCredit alongside
	// cwResume). Causal profiling only.
	cwFrom int32

	// curSite mirrors the call-site hash of the operation in flight when the
	// run is causally profiled (w.prof != nil): enter() and the stackless
	// executor keep it current so dependency records deep inside shared
	// completion code (completeRecv, credit resumes, collective rounds) can
	// attribute blame without re-walking the stack.
	curSite uint64

	// nextSite, when armed by SetCallSite, overrides the stack-walk call-site
	// hash for the next traced operation. Replay drivers use it to stamp the
	// original application's site onto re-issued operations, so a replayed
	// trace is byte-identical to its source regardless of which engine — or
	// which rank representation, stackful or stackless — drives the replay.
	nextSite uint64
	siteSet  bool

	// lastInject records, per flow (destination and message size), the
	// shadow time of the previous injection. Keying by flow makes the
	// measured period the application's per-stream cadence (face exchanges
	// vs solver pipelines are separate streams), matching per-path flow
	// control; size rather than tag identifies the stream so that
	// generated benchmarks — whose target language has no tags — see the
	// same flows as the original application. Built lazily on the first
	// bulk injection; runs without bulk traffic never allocate it.
	lastInject map[flowKey]float64
}

// flowKey identifies one sender-side message stream.
type flowKey struct {
	dst, size int
}

// arenaChunkMin and arenaChunkMax bound the arena refill size. The first
// refill is small so worlds with a handful of operations per rank (the
// dominant shape at the top of the scaling curve) strand at most a few
// entries; repeated refills double up to the max, which amortizes the
// allocator call across 64 operations on communication-heavy ranks.
const (
	arenaChunkMin = 8
	arenaChunkMax = 64
)

// nextChunkLen grows an arena's refill size: 0 -> min, then doubling to max.
func nextChunkLen(cur int) int {
	if cur == 0 {
		return arenaChunkMin
	}
	if cur >= arenaChunkMax/2 {
		return arenaChunkMax
	}
	return cur * 2
}

func (r *Rank) newMessage() *message {
	if r.msgUsed == len(r.msgChunk) {
		r.msgChunk = make([]message, nextChunkLen(len(r.msgChunk)))
		r.msgUsed = 0
	}
	m := &r.msgChunk[r.msgUsed]
	r.msgUsed++
	return m
}

func (r *Rank) newPostedRecv() *postedRecv {
	if r.recvUsed == len(r.recvChunk) {
		r.recvChunk = make([]postedRecv, nextChunkLen(len(r.recvChunk)))
		r.recvUsed = 0
	}
	p := &r.recvChunk[r.recvUsed]
	r.recvUsed++
	return p
}

func (r *Rank) newRequest() *Request {
	if r.reqUsed == len(r.reqChunk) {
		r.reqChunk = make([]Request, nextChunkLen(len(r.reqChunk)))
		r.reqUsed = 0
	}
	q := &r.reqChunk[r.reqUsed]
	r.reqUsed++
	return q
}

// rewindRequests recycles the request chunk: every request carved from it is
// dead. That is an ownership fact, true in two places — between runs
// (reset), and in a stackless rank whenever a drain has completed everything
// outstanding: the cursor's outstanding set is the only holder of the
// requests it creates (no application code sees them, and a parked
// creditWaiter holds the message, not the request). Coroutine ranks hand
// requests to the body, which may read Status long after the Wait, so theirs
// live until reset. The used entries are zeroed so a recycled chunk does not
// pin the messages and receives of completed operations.
//
// Posted receives and messages are deliberately not recycled the same way:
// the receiver's mailbox compacts its posted queue lazily and may still
// point at a consumed postedRecv, and a message is owned by its sender but
// read by its receiver (and by a creditWaiter) at times the sender cannot
// see. Their chunks are the next measured line of a replayed event's bytes.
func (r *Rank) rewindRequests() {
	clear(r.reqChunk[:r.reqUsed])
	r.reqUsed = 0
}

// reset prepares a pooled rank for its next run: clocks, per-run state and
// the arena cursors rewind; the arena chunks themselves (and their grown
// sizes) are retained, which is the point of pooling. Chunks whose element
// type holds pointers are cleared so a retained world does not pin the
// previous run's messages; the message chunk is pointer-free and left as-is
// (every allocation fully overwrites its entry). Only the last chunk of each
// arena is reachable from the rank — earlier chunks were dropped when the
// arena refilled mid-run — so rewinding cannot hand out entries that a
// previous run's mailbox still references.
//
// A *Request held across Runs is invalidated by the rewind: Engine reuse
// makes request lifetimes end with the run, matching MPI semantics.
func (r *Rank) reset(tracer Tracer) {
	r.clock = 0
	r.lastOpEnd = 0
	r.tracer = tracer
	r.finalized = false
	r.shadow = 0
	r.opCount = 0
	r.cwDone = false
	r.cwResume = 0
	r.cwFrom = 0
	r.curSite = 0
	r.nextSite = 0
	r.siteSet = false
	clear(r.lastInject)
	clear(r.recvChunk[:r.recvUsed])
	r.rewindRequests()
	r.msgUsed = 0
	r.recvUsed = 0
}

// Rank returns the world rank of this process.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.n }

// World returns the communicator containing every rank (MPI_COMM_WORLD).
func (r *Rank) World() *Comm { return r.w.commWorld }

// Clock returns the rank's current virtual time in microseconds.
func (r *Rank) Clock() float64 { return r.clock }

// Compute advances the rank's virtual clock by us microseconds, modeling a
// computation phase between communication calls. Negative durations are
// ignored.
func (r *Rank) Compute(us float64) {
	if us > 0 {
		r.opCount++
		us += r.w.model.NoiseUS(us, r.rank, r.opCount, 1)
		r.clock += us
		r.shadow += us
	}
}

// Status reports the outcome of a completed receive (or send).
type Status struct {
	// Source is the communicator-relative rank of the sender.
	Source int
	// SourceWorld is the sender's absolute rank.
	SourceWorld int
	// Tag is the matched message's tag.
	Tag int
	// Size is the matched message's size in bytes.
	Size int
}

// Request represents an outstanding nonblocking operation. It stores no
// Status of its own: the status is derived from the underlying message on
// demand, which keeps the struct — allocated once per nonblocking call —
// at its pointer fields.
type Request struct {
	op   Op
	comm *Comm
	msg  *message    // send side
	pr   *postedRecv // recv side
	dst  *mailbox    // send side: receiver's mailbox, for flow control
	done bool
}

// Done reports whether the request has been completed by a Wait.
func (q *Request) Done() bool { return q.done }

// Status returns the outcome of a completed request (zero until Done).
func (q *Request) Status() Status {
	if !q.done {
		return Status{}
	}
	if q.op == OpIsend {
		return Status{Tag: q.msg.tag, Size: q.msg.size}
	}
	return statusOf(q.comm, q.pr.msg)
}

// entryState snapshots the rank at the start of an MPI call.
type entryState struct {
	start   float64
	compute float64
	site    uint64
}

func (r *Rank) enter() entryState {
	st := entryState{start: r.clock, compute: r.clock - r.lastOpEnd}
	if r.siteSet {
		st.site = r.nextSite
		r.siteSet = false
	} else if r.tracer != nil {
		// The causal profiler deliberately does NOT trigger a stack walk
		// here: blame attribution rides on SetCallSite stamps (replay,
		// generated programs) or on the tracer's signature when one is
		// attached anyway. Walking the stack per operation would cost ~1us
		// each and sink the profiler's <=5% overhead budget; a profiled but
		// untraced, unstamped body records site 0 (unattributed) instead.
		st.site = r.callSite()
	}
	if r.w.prof != nil {
		r.curSite = st.site
	}
	return st
}

// noteSite keeps curSite current for profiled runs; the stackless executor
// calls it where enter() would have (its entry snapshots are built inline).
func (r *Rank) noteSite(site uint64) {
	if r.w.prof != nil {
		r.curSite = site
	}
}

// SetCallSite overrides the call-site hash recorded for the next MPI
// operation this rank issues, in place of the runtime's stack walk. Replay
// bodies stamp each re-issued operation with the site recorded in the source
// trace; the override is consumed by exactly one operation.
func (r *Rank) SetCallSite(site uint64) {
	r.nextSite = site
	r.siteSet = true
}

// record finishes an MPI call. ev points at a caller stack local that never
// escapes through here, so untraced runs — benchmarks, replays,
// generated-spec executions — allocate nothing per operation; with a tracer
// attached it is copied into the rank's scratch event, so traced operations
// allocate nothing here either. The caller's Counts and Group slices are
// passed by reference: a tracer that retains them copies them.
func (r *Rank) record(st entryState, ev *Event) {
	r.lastOpEnd = r.clock
	if r.tracer == nil {
		return
	}
	if r.scratch == nil {
		r.scratch = new(Event)
	}
	s := r.scratch
	*s = *ev
	s.Rank = r.rank
	s.CallSite = st.site
	s.ComputeUS = st.compute
	s.StartUS = st.start
	s.EndUS = r.clock
	r.tracer.Record(s)
}

func (r *Rank) checkActive() {
	if r.finalized {
		panic(fmt.Sprintf("mpi: rank %d used after Finalize", r.rank))
	}
	// Every MPI entry point is a cancellation point: a rank that was busy in
	// a (virtual) compute phase when the run was poisoned unwinds here.
	r.w.stop.checkStopped()
}

// inject creates and deposits a message to world rank wdst, returning it.
// The sender pays its send overhead; the arrival time includes the wire
// transfer per the network model.
func (r *Rank) inject(wdst, tag, size int) *message {
	m := r.w.model
	r.opCount++
	r.clock += m.SendOverheadUS
	r.shadow += m.SendOverheadUS
	transfer := m.TransferUS(size)
	transfer += m.NoiseUS(transfer, r.rank, r.opCount, 2)
	msg := r.newMessage()
	*msg = message{
		src:           r.rank,
		dst:           wdst,
		tag:           tag,
		size:          size,
		departure:     r.clock,
		arrival:       r.clock + transfer,
		shadowArrival: r.shadow + transfer,
	}
	r.w.mailboxes[wdst].deposit(msg)
	if m.FlowSaturationFactor > 0 && size > m.EagerLimit {
		// Burst throttling: offering bulk messages to one peer faster than
		// the path drains stalls the sender (buffer exhaustion + resume
		// cost). The message above has already departed; the stall delays
		// the sender's subsequent progress only, and the offered gap is
		// read from the stall-free shadow timeline. Eager messages are
		// absorbed by preallocated buffers and neither stall nor count
		// toward the offered load.
		key := flowKey{dst: wdst, size: size}
		if last, seen := r.lastInject[key]; seen {
			r.clock += m.BurstStallUS(size, r.shadow-last)
		}
		if r.lastInject == nil {
			r.lastInject = make(map[flowKey]float64)
		}
		r.lastInject[key] = r.shadow
	}
	return msg
}

// postRecv builds a posted receive for this rank's current virtual time.
// The mailbox stamps the post order under its lock.
func (r *Rank) postRecv(wsrc, tag int) *postedRecv {
	if wsrc == AnySource {
		ctrWildcardRecvs.Inc()
	}
	p := r.newPostedRecv()
	*p = postedRecv{src: wsrc, tag: tag, postTime: r.clock}
	return p
}

// stallForCredit models MPI flow control: the sender blocks until the
// receiver has drained its backlog below the credit window, then pays the
// resume latency.
func (r *Rank) stallForCredit(mb *mailbox, msg *message) {
	if resumeAt, stalled := mb.awaitCredit(msg, r.w.model.CreditWindow, r.clock); stalled {
		r.chargeCreditStall(resumeAt)
	}
}

// chargeCreditStall ends a flow-control stall that resolved at the receiver's
// drain clock resumeAt (or logically before the sender's own clock): the
// sender resumes at the later of the two plus the resume latency. A stackless
// cursor, which parks on the stall instead of blocking in awaitCredit, calls
// it on resume.
func (r *Rank) chargeCreditStall(resumeAt float64) {
	start := r.clock
	resumeAt = math.Max(start, resumeAt)
	r.clock = resumeAt + r.w.model.ResumeLatencyUS
	if g := r.w.prof; g != nil {
		g.add(DepRecord{Kind: DepCredit, Op: OpSend, Rank: int32(r.rank),
			From: r.cwFrom, Site: r.curSite, Start: start, Ready: resumeAt,
			End: r.clock, FromClock: resumeAt})
	}
}

// completeRecv finishes the receive described by p on this rank, charging
// arrival wait, receive overhead and — for messages that arrived (in virtual
// time) before the receive was posted — the unexpected-queue copy penalty.
// Whether the message is "unexpected" is a virtual-time property
// (arrival <= post time), independent of which goroutine physically ran
// first; this keeps timing deterministic under real scheduling races.
func (r *Rank) completeRecv(p *postedRecv) {
	m := r.w.model
	msg := p.msg
	waitStart := r.clock // a parked rank's clock never advances: this is the wait's start
	r.clock = math.Max(r.clock, msg.arrival) + m.RecvOverheadUS
	r.shadow = math.Max(r.shadow, msg.shadowArrival) + m.RecvOverheadUS
	unexpected := msg.arrival <= p.postTime
	var penalty float64
	if unexpected {
		penalty = m.UnexpectedCopyUS(msg.size)
		r.clock += penalty
		r.shadow += penalty
	}
	if g := r.w.prof; g != nil {
		g.add(DepRecord{Kind: DepRecv, Op: OpRecv, Rank: int32(r.rank),
			From: int32(msg.src), Site: r.curSite, Size: msg.size,
			Unexpected: unexpected, Start: waitStart, Ready: msg.arrival,
			End: r.clock, FromClock: msg.departure, Penalty: penalty})
	}
	r.w.mailboxes[r.rank].drain(msg, r.clock)
}

func statusOf(c *Comm, msg *message) Status {
	src, ok := c.CommRank(msg.src)
	if !ok {
		src = -1 // sender outside this communicator (app error, but don't panic)
	}
	return Status{Source: src, SourceWorld: msg.src, Tag: msg.tag, Size: msg.size}
}

// Send performs a blocking standard-mode send of size bytes to the
// communicator-relative rank dst. Buffering is eager, so Send does not wait
// for a matching receive, but it does block on flow control when the
// receiver's backlog exceeds the credit window.
func (r *Rank) Send(c *Comm, dst, tag, size int) {
	r.checkActive()
	st := r.enter()
	wdst := c.WorldRank(dst)
	msg := r.inject(wdst, tag, size)
	r.stallForCredit(r.w.mailboxes[wdst], msg)
	r.record(st, &Event{Op: OpSend, CommID: c.id, CommSize: c.Size(),
		Peer: dst, PeerWorld: wdst, Tag: tag, Size: size, Root: -1})
}

// Isend starts a nonblocking send and returns its request. Flow-control
// stalls, if any, are charged when the request is waited on.
func (r *Rank) Isend(c *Comm, dst, tag, size int) *Request {
	r.checkActive()
	st := r.enter()
	wdst := c.WorldRank(dst)
	msg := r.inject(wdst, tag, size)
	req := r.newRequest()
	*req = Request{op: OpIsend, comm: c, msg: msg, dst: r.w.mailboxes[wdst]}
	r.record(st, &Event{Op: OpIsend, CommID: c.id, CommSize: c.Size(),
		Peer: dst, PeerWorld: wdst, Tag: tag, Size: size, Root: -1})
	return req
}

// Recv performs a blocking receive of up to size bytes from the
// communicator-relative rank src (or AnySource) with the given tag (or
// AnyTag). size plays the role of MPI's count argument: it is recorded in
// the trace but does not constrain matching. Recv returns the matched
// message's status.
func (r *Rank) Recv(c *Comm, src, tag, size int) Status {
	r.checkActive()
	st := r.enter()
	wsrc := src
	if src != AnySource {
		wsrc = c.WorldRank(src)
	}
	mb := r.w.mailboxes[r.rank]
	p := r.postRecv(wsrc, tag)
	// Fast path: the message was already queued and post consumed it, so
	// the receive never entered a posted queue and there is nothing to wait
	// for or tombstone — skip the second lock acquisition entirely.
	if !mb.post(p) {
		mb.awaitMatch(p)
	}
	r.completeRecv(p)
	status := statusOf(c, p.msg)
	r.record(st, &Event{Op: OpRecv, CommID: c.id, CommSize: c.Size(),
		Peer: src, PeerWorld: p.msg.src, SourceWasWildcard: src == AnySource,
		Tag: tag, Size: size, Root: -1})
	return status
}

// Irecv posts a nonblocking receive of up to size bytes and returns its
// request.
func (r *Rank) Irecv(c *Comm, src, tag, size int) *Request {
	r.checkActive()
	st := r.enter()
	wsrc := src
	if src != AnySource {
		wsrc = c.WorldRank(src)
	}
	p := r.postRecv(wsrc, tag)
	r.w.mailboxes[r.rank].post(p)
	req := r.newRequest()
	*req = Request{op: OpIrecv, comm: c, pr: p}
	// The traced event keeps the wildcard unresolved (Peer/PeerWorld filled
	// at Wait time for the PeerWorld side).
	r.record(st, &Event{Op: OpIrecv, CommID: c.id, CommSize: c.Size(),
		Peer: src, PeerWorld: wsrc, SourceWasWildcard: src == AnySource,
		Tag: tag, Size: size, Root: -1})
	return req
}

// wait completes a single request without emitting a trace event; Wait and
// Waitall wrap it.
func (r *Rank) wait(q *Request) {
	if q.done {
		return
	}
	switch q.op {
	case OpIsend:
		r.stallForCredit(q.dst, q.msg)
	case OpIrecv:
		// A receive matched at post time never entered a posted queue;
		// its message is already attached and needs no mailbox round trip.
		if !q.pr.fastMatched {
			r.w.mailboxes[r.rank].awaitMatch(q.pr)
		}
		r.completeRecv(q.pr)
	default:
		panic(fmt.Sprintf("mpi: wait on non-request op %v", q.op))
	}
	q.done = true
}

// Wait blocks until the nonblocking request completes.
func (r *Rank) Wait(q *Request) Status {
	r.checkActive()
	st := r.enter()
	r.wait(q)
	r.record(st, &Event{Op: OpWait, CommID: q.comm.id, CommSize: q.comm.Size(),
		Peer: NoPeer, PeerWorld: NoPeer, Size: 1, Root: -1})
	return q.Status()
}

// Waitall completes all given requests. Receive requests are drained first
// so that flow-control credits are returned before send stalls are served;
// this mirrors an MPI progress engine and avoids artificial deadlock between
// mutually stalled senders. Each request's status remains readable through
// Request.Status after completion; Waitall itself returns nothing so that the
// hot path allocates no status slice.
func (r *Rank) Waitall(reqs ...*Request) {
	r.checkActive()
	st := r.enter()
	commID, commSize := 0, r.w.n
	for _, q := range reqs {
		if q.op == OpIrecv {
			r.wait(q)
		}
		commID, commSize = q.comm.id, q.comm.Size()
	}
	for _, q := range reqs {
		if q.op != OpIrecv {
			r.wait(q)
		}
	}
	r.record(st, &Event{Op: OpWaitall, CommID: commID, CommSize: commSize,
		Peer: NoPeer, PeerWorld: NoPeer, Size: len(reqs), Root: -1})
}

// Sendrecv performs a combined send and receive (as MPI_Sendrecv), which is
// deadlock-safe under the runtime's eager buffering.
func (r *Rank) Sendrecv(c *Comm, dst, sendTag, sendSize, src, recvTag, recvSize int) Status {
	sreq := r.Isend(c, dst, sendTag, sendSize)
	rreq := r.Irecv(c, src, recvTag, recvSize)
	r.Waitall(rreq, sreq)
	return rreq.Status()
}
