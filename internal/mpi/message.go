package mpi

import "math"

// message is one in-flight point-to-point transfer. All ranks are world
// ranks; communicator-relative ranks are translated before messages enter
// the transport layer.
type message struct {
	src, dst int
	tag      int
	size     int
	// departure is the sender's clock at injection (send overhead paid),
	// recorded for causal profiling: the instant the dependency chain
	// crosses from sender to wire.
	departure float64
	arrival   float64 // virtual time the payload is available at dst
	// shadowArrival is the arrival on the stall-free shadow timeline used
	// to measure offered load for the burst-throttle model.
	shadowArrival float64
	matched       bool // consumed by a posted receive
	drained       bool // receive completed; credit returned
}

// postedRecv is a receive that has been posted (blocking Recv or Irecv) and
// may or may not have been matched with a message yet.
type postedRecv struct {
	src, tag int // AnySource / AnyTag allowed
	postTime float64
	order    uint64   // mailbox-wide post order, for earliest-acceptor ties
	msg      *message // non-nil once matched
	// fastMatched records that post consumed an already-queued message, so
	// the receive was never enqueued and its completion has no tombstone to
	// account for. Written by the posting rank and read only by it afterwards.
	fastMatched bool
}

func (p *postedRecv) accepts(m *message) bool {
	if p.msg != nil {
		return false
	}
	if p.src != AnySource && p.src != m.src {
		return false
	}
	if p.tag != AnyTag && p.tag != m.tag {
		return false
	}
	return true
}

// msgQueue is a FIFO of unexpected messages from one source, in injection
// order (deposits from one source arrive in injection order because inject
// runs on the sender's goroutine, so queue position encodes the MPI
// non-overtaking order with no explicit sequence numbers). Consumed entries are
// tombstoned in place and reclaimed by periodic compaction, so the common
// head-of-queue match stays O(1).
type msgQueue struct {
	items []*message
	head  int // items[:head] are consumed
	dead  int // consumed entries at index >= head
}

func (q *msgQueue) push(m *message) { q.items = append(q.items, m) }

// skipConsumed advances head past tombstones.
func (q *msgQueue) skipConsumed() {
	for q.head < len(q.items) && q.items[q.head].matched {
		q.head++
		if q.dead > 0 {
			q.dead--
		}
	}
}

// firstMatch returns the index of the lowest-sequence live message that a
// receive with the given tag accepts, or -1.
func (q *msgQueue) firstMatch(tag int) int {
	q.skipConsumed()
	for i := q.head; i < len(q.items); i++ {
		m := q.items[i]
		if m.matched {
			continue
		}
		if tag == AnyTag || tag == m.tag {
			return i
		}
	}
	return -1
}

// take consumes items[i] and returns it.
func (q *msgQueue) take(i int) *message {
	m := q.items[i]
	m.matched = true
	if i == q.head {
		q.head++
	} else {
		q.dead++
	}
	q.maybeCompact()
	return m
}

func (q *msgQueue) maybeCompact() {
	garbage := q.head + q.dead
	if garbage < 32 || 2*garbage < len(q.items) {
		return
	}
	live := q.items[:0]
	for _, m := range q.items[q.head:] {
		if !m.matched {
			live = append(live, m)
		}
	}
	for i := len(live); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = live
	q.head, q.dead = 0, 0
}

// recvQueue is a FIFO of posted receives sharing a source selector,
// tombstoned and compacted like msgQueue.
type recvQueue struct {
	items []*postedRecv
	head  int
	dead  int
}

func (q *recvQueue) push(p *postedRecv) { q.items = append(q.items, p) }

// firstAcceptor returns the earliest-posted live receive that accepts m,
// or nil.
func (q *recvQueue) firstAcceptor(m *message) *postedRecv {
	for q.head < len(q.items) && q.items[q.head].msg != nil {
		q.head++
		if q.dead > 0 {
			q.dead--
		}
	}
	for i := q.head; i < len(q.items); i++ {
		p := q.items[i]
		if p.msg != nil {
			continue
		}
		if p.accepts(m) {
			return p
		}
	}
	return nil
}

func (q *recvQueue) maybeCompact() {
	garbage := q.head + q.dead
	if garbage < 32 || 2*garbage < len(q.items) {
		return
	}
	live := q.items[:0]
	for _, p := range q.items[q.head:] {
		if p.msg == nil {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = live
	q.head, q.dead = 0, 0
}

// srcSlot gathers one source rank's mailbox state — its unexpected-message
// queue, its concrete-source posted receives, and its flow-control count —
// so a deposit touches a single struct (usually one cache line) instead of
// three parallel structures. Slots are allocated on a source's first
// message or posted receive (see mailbox.slot).
type srcSlot struct {
	unex     msgQueue  // deposited, not yet matched (injection order)
	posted   recvQueue // concrete-source receives, post order
	inflight int       // deposited-but-not-drained count
	credit   creditWaiter
}

// creditWaiter is a sender parked on this mailbox's flow control: it resumes
// once msg is drained or the source's inflight count falls to the window. It
// lives inside the source's srcSlot — a sender is serial, so at most one
// stall per (source, receiver) pair can exist, and because the stall
// predicate only mentions that source's state, a drain of a message from
// source s can release no one but s. That makes credit release O(1) per drain
// where a shared waiter list would be scanned in full — the difference
// between O(messages) and O(messages × senders) on an incast. msg non-nil
// marks the slot occupied.
type creditWaiter struct {
	rank   int32 // sender's world rank
	window int32
	msg    *message
}

// anyCand is one anyHeap entry: a source's candidate message for AnySource
// matching, with its sort key (the message's virtual arrival, source rank
// breaking ties — the documented wildcard-match order) cached inline.
type anyCand struct {
	arrival float64
	src     int32
	msg     *message
}

// mailbox is the per-rank transport endpoint: per-source state indexed by
// world rank, an AnySource receive queue, and flow-control accounting.
// Senders deposit without blocking; receivers match and complete. The
// indexes preserve the scan semantics of a single FIFO: matching takes the
// oldest unexpected message per source, AnySource picks the candidate with
// the earliest virtual arrival (source rank breaking ties), and a deposit
// attaches to the earliest posted acceptor.
//
// At most one rank executes at a time under the event engine, so the mailbox
// needs no locking at all: blocking waits return control to the scheduler's
// driver, and the operations that satisfy them (a matching deposit, a
// credit-releasing drain) push the waiter back onto the run queue.
//
// The per-source index is an int32 slice (0 = no state yet, else slot
// position + 1) into a compact slice of srcSlots that grows with the
// sources actually seen. A rank typically communicates with a handful of
// peers, so the dense structures stay tiny, and the world-rank-sized index
// is pointer-free: the garbage collector never scans it, unlike a
// world-sized slice of queue pointers. Above denseSrcIndexRanks ranks the
// n-per-rank (n² total) index slices would dominate the world's footprint,
// so the index falls back to a lazy per-mailbox map keyed by source rank —
// still compact, because each rank talks to few peers.
type mailbox struct {
	srcIdx   []int32         // dense index by source world rank; 0 = none, else 1+slot
	srcMap   map[int32]int32 // sparse index, used when srcIdx is nil
	slots    []srcSlot       // per-source state for sources seen so far
	unexLive int             // live (unmatched) unexpected messages across all sources

	postedAny recvQueue // AnySource receives, post order
	postCount uint64    // post-order stamp generator

	// anyHeap accelerates AnySource matching against a standing unexpected
	// backlog: a min-heap keyed (arrival, source) holding each source's
	// current candidate — its lowest-sequence live message accepted by tag
	// anyTag. Without it every wildcard receive scans all source slots, which
	// under the event engine is quadratic on master/worker patterns: clock-
	// ordered dispatch runs the senders far ahead of the master, so the
	// backlog is standing by construction. Entries go stale when a candidate
	// is consumed; the pop loop detects that (the entry no longer equals the
	// slot's live candidate) and discards, which is sound because every
	// candidate change pushes a fresh entry for the new candidate — the heap
	// always contains at least one entry for each source's current candidate.
	// A receive with a different tag than the heap was built for rebuilds it
	// (one slot scan); phases alternating wildcard tags per receive would
	// thrash, but wildcard phases use one tag in every workload here.
	anyHeap  []anyCand
	anyTag   int
	anyValid bool

	lastDrain float64 // receiver clock at the most recent drain

	// owner is the world rank this mailbox belongs to; seq is the event
	// engine that parks and wakes it.
	owner int32
	seq   *eventLoop
}

// initMailbox prepares a zero mailbox in place. srcIdx is its dense
// per-source index, carved from a world-sized backing array; a nil srcIdx
// selects the sparse map index instead (worlds above denseSrcIndexRanks).
func (mb *mailbox) initMailbox(srcIdx []int32, owner int32, seq *eventLoop) {
	mb.srcIdx = srcIdx
	mb.owner = owner
	mb.seq = seq
}

// slot returns the per-source state for src, allocating it on first use.
// The returned pointer is invalidated by the next slot call (growth may move
// the slice), so callers must not retain it across allocations.
func (mb *mailbox) slot(src int) *srcSlot {
	var i int32
	if mb.srcIdx != nil {
		i = mb.srcIdx[src]
	} else {
		i = mb.srcMap[int32(src)]
	}
	if i == 0 {
		mb.slots = append(mb.slots, srcSlot{})
		i = int32(len(mb.slots))
		if mb.srcIdx != nil {
			mb.srcIdx[src] = i
		} else {
			if mb.srcMap == nil {
				mb.srcMap = make(map[int32]int32, 8)
			}
			mb.srcMap[int32(src)] = i
		}
	}
	return &mb.slots[i-1]
}

// lookup returns the per-source state for src, or nil if the source has no
// state yet.
func (mb *mailbox) lookup(src int) *srcSlot {
	var i int32
	if mb.srcIdx != nil {
		i = mb.srcIdx[src]
	} else {
		i = mb.srcMap[int32(src)]
	}
	if i != 0 {
		return &mb.slots[i-1]
	}
	return nil
}

// deposit delivers a message. If a compatible posted receive exists the
// message is attached to the earliest one; otherwise it joins the source's
// unexpected queue. deposit never blocks (eager/buffered semantics). A match
// wakes the owner: it may be parked in awaitMatch on the receive just
// satisfied (an unmatched deposit cannot unblock it, so no wake is needed
// then).
func (mb *mailbox) deposit(m *message) {
	s := mb.slot(m.src)
	s.inflight++
	// Earliest acceptor across the source's queue and the AnySource queue.
	best := s.posted.firstAcceptor(m)
	if p := (&mb.postedAny).firstAcceptor(m); p != nil && (best == nil || p.order < best.order) {
		best = p
	}
	if best != nil {
		best.msg = m
		m.matched = true
		mb.seq.wake(mb.owner)
		return
	}
	s.unex.push(m)
	mb.unexLive++
	ctrQueuedUnexpected.Inc()
	// If this message became its source's AnySource candidate (no earlier
	// live match existed), mirror it into the candidate heap.
	if mb.anyValid && acceptsTag(mb.anyTag, m.tag) {
		if i := s.unex.firstMatch(mb.anyTag); i >= 0 && s.unex.items[i] == m {
			mb.anyPush(anyCand{arrival: m.arrival, src: int32(m.src), msg: m})
		}
	}
}

// post registers the receive p (allocated by the calling rank) and attempts
// to match it immediately against the unexpected queue. Matching takes,
// among compatible messages, the lowest sequence number per source; for
// AnySource the earliest virtual arrival wins, with source rank breaking
// ties deterministically. It reports whether p was matched on the spot — in
// that case p was never enqueued and the receive needs no further mailbox
// interaction.
func (mb *mailbox) post(p *postedRecv) (matched bool) {
	p.order = mb.postCount
	mb.postCount++
	if m := mb.takeUnexpected(p); m != nil {
		p.msg = m
		p.fastMatched = true
		ctrMatchedFast.Inc()
		return true
	}
	if p.src == AnySource {
		mb.postedAny.push(p)
	} else {
		mb.slot(p.src).posted.push(p)
	}
	return false
}

// takeUnexpected removes and returns the best unexpected match for p, or nil.
func (mb *mailbox) takeUnexpected(p *postedRecv) *message {
	if mb.unexLive == 0 {
		return nil
	}
	if p.src != AnySource {
		s := mb.lookup(p.src)
		if s == nil {
			return nil
		}
		q := &s.unex
		i := q.firstMatch(p.tag)
		if i < 0 {
			return nil
		}
		mb.unexLive--
		m := q.take(i)
		// The take may have consumed this source's AnySource candidate; push
		// its successor so the heap keeps covering the source (a duplicate
		// entry for an unchanged candidate is harmless — pops validate).
		if mb.anyValid && acceptsTag(mb.anyTag, m.tag) {
			if j := q.firstMatch(mb.anyTag); j >= 0 {
				nc := q.items[j]
				mb.anyPush(anyCand{arrival: nc.arrival, src: int32(nc.src), msg: nc})
			}
		}
		return m
	}
	// AnySource: the per-source candidate is each queue's oldest tag match;
	// the earliest virtual arrival wins, source rank breaking ties, so the
	// outcome does not depend on slot order. The candidate heap serves that
	// minimum in O(log sources) instead of a full slot scan.
	if !mb.anyValid || mb.anyTag != p.tag {
		mb.rebuildAnyHeap(p.tag)
	}
	for len(mb.anyHeap) > 0 {
		top := mb.anyHeap[0]
		s := mb.lookup(int(top.src))
		var q *msgQueue
		i := -1
		if s != nil {
			q = &s.unex
			i = q.firstMatch(p.tag)
		}
		if i < 0 || q.items[i] != top.msg {
			// Stale: this source's candidate was consumed since the entry
			// was pushed. Its current candidate (if any) has its own entry.
			mb.anyPop()
			continue
		}
		mb.anyPop()
		mb.unexLive--
		m := q.take(i)
		if j := q.firstMatch(p.tag); j >= 0 {
			nc := q.items[j]
			mb.anyPush(anyCand{arrival: nc.arrival, src: int32(nc.src), msg: nc})
		}
		return m
	}
	return nil
}

// acceptsTag reports whether a receive posted with rtag accepts a message
// tagged mtag.
func acceptsTag(rtag, mtag int) bool { return rtag == AnyTag || rtag == mtag }

// rebuildAnyHeap scans every source slot once and (re)builds the AnySource
// candidate heap for receives tagged tag.
func (mb *mailbox) rebuildAnyHeap(tag int) {
	mb.anyHeap = mb.anyHeap[:0]
	mb.anyTag = tag
	mb.anyValid = true
	for si := range mb.slots {
		q := &mb.slots[si].unex
		if i := q.firstMatch(tag); i >= 0 {
			m := q.items[i]
			mb.anyPush(anyCand{arrival: m.arrival, src: int32(m.src), msg: m})
		}
	}
}

func candLess(a, b anyCand) bool {
	return a.arrival < b.arrival || (a.arrival == b.arrival && a.src < b.src)
}

func (mb *mailbox) anyPush(ent anyCand) {
	h := append(mb.anyHeap, ent)
	mb.anyHeap = h
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !candLess(ent, h[p]) {
			break
		}
		h[c] = h[p]
		c = p
	}
	h[c] = ent
}

func (mb *mailbox) anyPop() {
	h := mb.anyHeap
	last := len(h) - 1
	ent := h[last]
	h[last] = anyCand{}
	h = h[:last]
	mb.anyHeap = h
	if last == 0 {
		return
	}
	p := 0
	for {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && candLess(h[c+1], h[c]) {
			c++
		}
		if !candLess(h[c], ent) {
			break
		}
		h[p] = h[c]
		p = c
	}
	h[p] = ent
}

// awaitMatch blocks until p has been matched by a depositor. The matched
// entry stays tombstoned in its posted queue (p.msg != nil makes every scan
// skip it) until compaction reclaims it. The receiver returns control to the
// driver and the matching deposit wakes it; wakes may be spurious (any
// activity on this rank's structures), hence the loop.
func (mb *mailbox) awaitMatch(p *postedRecv) {
	for p.msg == nil {
		mb.seq.block(mb.owner)
	}
	mb.noteConsumed(p)
}

// noteConsumed accounts for p's tombstone in its posted queue.
func (mb *mailbox) noteConsumed(p *postedRecv) {
	if p.src == AnySource {
		mb.postedAny.noteConsumed(p)
	} else if s := mb.lookup(p.src); s != nil {
		s.posted.noteConsumed(p)
	}
}

// noteConsumed accounts for p's tombstone and compacts when garbage
// accumulates.
func (q *recvQueue) noteConsumed(p *postedRecv) {
	if q.head < len(q.items) && q.items[q.head] == p {
		q.head++
	} else {
		q.dead++
	}
	q.maybeCompact()
}

// drain marks the receive of m complete at receiver virtual time now,
// returning flow-control credit to the sender.
func (mb *mailbox) drain(m *message, now float64) {
	if m.drained {
		return
	}
	m.drained = true
	s := mb.slot(m.src)
	s.inflight--
	if now > mb.lastDrain {
		mb.lastDrain = now
	}
	if cw := &s.credit; cw.msg != nil &&
		(cw.msg.drained || s.inflight <= int(cw.window)) {
		mb.releaseCredit(cw)
	}
}

// releaseCredit wakes the one parked sender whose stall this drain resolved,
// recording the releasing drain clock on the sender so its resume time
// reflects the drain that freed it.
func (mb *mailbox) releaseCredit(cw *creditWaiter) {
	snd := mb.seq.rank(cw.rank)
	snd.cwDone = true
	snd.cwResume = mb.lastDrain
	snd.cwFrom = mb.owner
	mb.seq.wake(cw.rank)
	*cw = creditWaiter{}
}

// awaitCredit blocks the sender of msg until the receiver has drained enough
// of its backlog (inflight below window) or msg itself has been drained.
// It returns the virtual time at which the stall resolved (the receiver's
// drain clock), or senderClock if no stall occurred. window <= 0 disables
// flow control.
func (mb *mailbox) awaitCredit(msg *message, window int, senderClock float64) (resumeAt float64, stalled bool) {
	if window <= 0 {
		return senderClock, false
	}
	s := mb.slot(msg.src)
	if msg.drained || s.inflight <= window {
		return senderClock, false
	}
	me := int32(msg.src)
	snd := mb.seq.rank(me)
	snd.cwDone = false
	snd.cwResume = 0
	s.credit = creditWaiter{rank: me, window: int32(window), msg: msg}
	for !snd.cwDone {
		mb.seq.block(me)
	}
	return math.Max(senderClock, snd.cwResume), true
}

// reset empties a queue for the next run on a pooled world, clearing the
// retained backing array's pointers (so the old run's messages are not
// pinned) while keeping its capacity.
func (q *msgQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.head, q.dead = 0, 0
}

func (q *recvQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.head, q.dead = 0, 0
}

// reset prepares a pooled mailbox for its next run. The per-source index
// (srcIdx or srcMap) and the slots slice are kept intact: re-deriving which
// sources this rank heard from is more expensive than leaving empty slots in
// place, and a slot whose queues are empty is invisible to every matching
// scan. Queue backing arrays keep their grown capacity — that retained
// capacity is most of what a warm Run saves. Only safe after the previous
// run has fully quiesced (no rank can touch the mailbox).
func (mb *mailbox) reset() {
	for i := range mb.slots {
		s := &mb.slots[i]
		s.unex.reset()
		s.posted.reset()
		s.inflight = 0
		s.credit = creditWaiter{}
	}
	mb.unexLive = 0
	mb.postedAny.reset()
	mb.postCount = 0
	clear(mb.anyHeap)
	mb.anyHeap = mb.anyHeap[:0]
	mb.anyTag = 0
	mb.anyValid = false
	mb.lastDrain = 0
}
