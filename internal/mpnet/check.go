package mpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ctrStates counts canonical states explored by the checker across all
// verification runs (exported on /metrics as mpnet.states_explored).
var ctrStates = telemetry.NewCounter("mpnet.states_explored")

// The checker explores the net's executions in drain-normal form, the
// POE-style reduction of ISP (Vakkalanka et al.): every transition
// except a wildcard match is deterministic under the net's semantics —
// sends complete eagerly, concrete receives match in posting order
// against per-channel token counts, collectives are rendezvous — so
// deterministic transitions are fired exhaustively in a canonical
// round-robin order (this is the partial-order reduction over
// independent rank steps), and only at quiescence, when no deterministic
// transition is enabled, does the search branch over the wildcard
// matches available. Delaying wildcard matches to quiescence is sound
// and maximal: firing deterministic transitions only adds tokens to
// channels, so every source available at any earlier point is still
// available at quiescence, and a message that is causally after a match
// can never have been that match.
//
// Branches on different ranks are independent (a channel place has a
// single consumer rank), so sibling choices are entered into sleep sets
// and the visited-state memo stores the sleep set it was explored under
// (a state is pruned only when it is reached with a superset of the
// stored sleep set; otherwise it is re-explored under the intersection).
// The quiescent states are searched breadth-first by wildcard-choice
// depth, so the first deadlock found carries a minimal number of
// wildcard commitments — the minimal counterexample interleaving.

// Choice is one wildcard commitment of an execution: rank's receive at
// event index Event matched a message from world rank Source.
type Choice struct {
	Rank   int    `json:"rank"`
	Event  int    `json:"event"`
	Source int    `json:"source"`
	Tag    int    `json:"tag"`
	Site   uint64 `json:"site"`
}

// Counterexample is a minimal deadlocking execution: commit the wildcard
// choices in order (draining all deterministic transitions between them)
// and the net reaches a state where no transition is enabled while
// Blocked ranks still hold events.
type Counterexample struct {
	Choices []Choice `json:"choices"`
	Blocked []string `json:"blocked"`
}

// Verdict is the result of exploring one net.
type Verdict struct {
	// DeadlockFree is true only when the exploration was Exhaustive and
	// found no deadlock; a bounded-out search leaves it false.
	DeadlockFree bool `json:"deadlock_free"`
	// Exhaustive reports whether the full (reduced) state space fit in
	// Options.MaxStates.
	Exhaustive     bool            `json:"exhaustive"`
	StatesExplored int             `json:"states_explored"`
	BranchPoints   int             `json:"branch_points"`
	Executions     int             `json:"executions"`
	MaxChoiceDepth int             `json:"max_choice_depth"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

// slot is one outstanding nonblocking request (the resolver's
// outstanding list): ev indexes the rank's event sequence; send slots
// are born matched.
type slot struct {
	ev      int32
	matched bool
}

// vmState is one marking of the net: per-rank control positions,
// per-channel token counts with the set of non-empty channels (a quiescent
// marking holds few tokens; encode, decode and enumerate visit only those),
// and per-rank outstanding request queues. The checker owns two of them for
// a whole exploration and overwrites them per state (decode, copyFrom);
// every queue keeps its backing array.
type vmState struct {
	pc    []int32
	chans []int32
	nz    []uint64 // bit ch%64 of word ch/64 set iff chans[ch] != 0; kept by inc and dec
	out   [][]slot
}

func (s *vmState) inc(ch int32) {
	s.chans[ch]++
	s.nz[ch>>6] |= 1 << (ch & 63)
}

func (s *vmState) dec(ch int32) {
	if s.chans[ch]--; s.chans[ch] == 0 {
		s.nz[ch>>6] &^= 1 << (ch & 63)
	}
}

func (s *vmState) copyFrom(src *vmState) {
	copy(s.pc, src.pc)
	copy(s.chans, src.chans)
	copy(s.nz, src.nz)
	for r, q := range src.out {
		s.out[r] = append(s.out[r][:0], q...)
	}
}

// encode appends the canonical state key to buf, as varints in fixed
// order: every pc; the channels holding tokens, each as its distance from
// the previous one (from -1) and its count, closed by a 0 — at quiescence
// most channels are empty; every outstanding queue (length, then event
// index and matched bit per slot).
func (s *vmState) encode(buf []byte) []byte {
	for _, pc := range s.pc {
		buf = binary.AppendUvarint(buf, uint64(pc))
	}
	prev := -1
	for w, m := range s.nz {
		for ; m != 0; m &= m - 1 {
			ch := w<<6 | bits.TrailingZeros64(m)
			buf = binary.AppendUvarint(buf, uint64(ch-prev))
			buf = binary.AppendUvarint(buf, uint64(s.chans[ch]))
			prev = ch
		}
	}
	buf = append(buf, 0)
	for _, q := range s.out {
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, sl := range q {
			v := uint64(sl.ev) << 1
			if sl.matched {
				v |= 1
			}
			buf = binary.AppendUvarint(buf, v)
		}
	}
	return buf
}

// encodedBound is the most bytes encode can append for s: every value is a
// non-negative int32 (or one shifted left once), at most five varint bytes.
func (s *vmState) encodedBound() int {
	vals := len(s.pc) + 2*len(s.chans) + 1 + len(s.out)
	for _, q := range s.out {
		vals += len(q)
	}
	return vals * binary.MaxVarintLen32
}

// decode overwrites s with the marking encode rendered into key.
func (s *vmState) decode(key []byte) {
	next := func() uint64 {
		v, n := binary.Uvarint(key)
		key = key[n:]
		return v
	}
	for r := range s.pc {
		s.pc[r] = int32(next())
	}
	for w, m := range s.nz {
		for ; m != 0; m &= m - 1 {
			s.chans[w<<6|bits.TrailingZeros64(m)] = 0
		}
	}
	clear(s.nz)
	for ch := -1; ; {
		d := next()
		if d == 0 {
			break
		}
		ch += int(d)
		s.chans[ch] = int32(next())
		s.nz[ch>>6] |= 1 << (ch & 63)
	}
	for r := range s.out {
		q := s.out[r][:0]
		for n := next(); n > 0; n-- {
			v := next()
			q = append(q, slot{ev: int32(v >> 1), matched: v&1 == 1})
		}
		s.out[r] = q
	}
}

// option is one enabled wildcard match: the receive at event index ev of
// rank may consume a token from channel ch.
type option struct {
	rank, ev, ch int32
}

// A sleep key packs an option into one word, rank above event above
// channel, so that keys order like (rank, event, channel). These are what
// the three fields can hold; FromTrace refuses a net that exceeds any of
// them (ErrNetTooLarge) instead of letting two options share a key.
const (
	keyFieldBits = 22
	// MaxRanks, MaxRankEvents and MaxChannels bound a checkable net: the
	// rank count, any one rank's expanded event count, and the channel
	// table.
	MaxRanks      = 1 << (64 - 2*keyFieldBits)
	MaxRankEvents = 1 << keyFieldBits
	MaxChannels   = 1 << keyFieldBits
)

func (o option) key() uint64 {
	return uint64(o.rank)<<(2*keyFieldBits) | uint64(o.ev)<<keyFieldBits | uint64(o.ch)
}

// keyRank is the rank field of a sleep key.
func keyRank(k uint64) int32 { return int32(k >> (2 * keyFieldBits)) }

type checker struct {
	net *Net
	n   int
	// inbound[r] is the words of an nz bitset holding rank r's inbound channels.
	inbound [][]chanWord
	// wilds and opts are scratch: a rank's unmatched wildcards during one
	// matching pass, and the options enumerate returns.
	wilds []*Event
	opts  []option
}

// chanWord is word w of a channel bitset.
type chanWord struct {
	w    int
	mask uint64
}

func newChecker(n *Net) *checker {
	c := &checker{net: n, n: n.N, inbound: make([][]chanWord, n.N)}
	for ch, key := range n.Chans {
		in := c.inbound[key.Dst]
		if len(in) == 0 || in[len(in)-1].w != ch>>6 {
			in = append(in, chanWord{w: ch >> 6})
		}
		in[len(in)-1].mask |= 1 << (ch & 63)
		c.inbound[key.Dst] = in
	}
	return c
}

func (c *checker) newState() *vmState {
	return &vmState{
		pc:    make([]int32, c.n),
		chans: make([]int32, len(c.net.Chans)),
		nz:    make([]uint64, (len(c.net.Chans)+63)/64),
		out:   make([][]slot, c.n),
	}
}

func (c *checker) done(s *vmState, rank int) bool {
	return int(s.pc[rank]) >= len(c.net.Procs[rank])
}

func (c *checker) allDone(s *vmState) bool {
	for r := 0; r < c.n; r++ {
		if !c.done(s, r) {
			return false
		}
	}
	return true
}

// compat reports whether a receive event may consume from channel ch.
func (c *checker) compat(ev *Event, ch int32) bool {
	key := c.net.Chans[ch]
	if ev.CommID != key.CommID || (ev.Tag != mpi.AnyTag && ev.Tag != key.Tag) {
		return false
	}
	return ev.Wild || ev.Peer == key.Src
}

// unmatchedWilds returns the rank's unmatched wildcard slots in posting
// order, for MPI non-overtaking: a message compatible with an
// earlier-posted unmatched wildcard must match that wildcard, so no
// later concrete receive may steal it during the deterministic drain. The
// result is the checker's scratch, valid until the next matching pass.
func (c *checker) unmatchedWilds(s *vmState, rank int) []*Event {
	wilds := c.wilds[:0]
	for _, sl := range s.out[rank] {
		if sl.matched {
			continue
		}
		if ev := &c.net.Procs[rank][sl.ev]; ev.Wild {
			wilds = append(wilds, ev)
		}
	}
	c.wilds = wilds
	return wilds
}

func (c *checker) shadowed(wilds []*Event, ch int32) bool {
	key := c.net.Chans[ch]
	for _, w := range wilds {
		if w.CommID == key.CommID && (w.Tag == mpi.AnyTag || w.Tag == key.Tag) {
			return true
		}
	}
	return false
}

// takeConcrete consumes a token for a concrete receive if one is
// available and not claimed by an earlier wildcard.
func (c *checker) takeConcrete(s *vmState, ev *Event, wilds []*Event) bool {
	for _, ch := range ev.Cands {
		if s.chans[ch] > 0 && !c.shadowed(wilds, ch) {
			s.dec(ch)
			return true
		}
	}
	return false
}

// matchPending matches the rank's unmatched concrete posted receives in
// posting order (the resolver's matchInbox). Wildcard slots are left for
// the branch step.
func (c *checker) matchPending(s *vmState, rank int) bool {
	progress := false
	wilds := c.wilds[:0]
	q := s.out[rank]
	for i := range q {
		if q[i].matched {
			continue
		}
		ev := &c.net.Procs[rank][q[i].ev]
		if ev.Wild {
			wilds = append(wilds, ev)
			continue
		}
		if ev.Kind == EvIrecv && c.takeConcrete(s, ev, wilds) {
			q[i].matched = true
			progress = true
		}
	}
	c.wilds = wilds
	return progress
}

// step advances one rank until it blocks or finishes, mirroring the
// resolver's run loop event for event.
func (c *checker) step(s *vmState, rank int) bool {
	progress := c.matchPending(s, rank)
	procs := c.net.Procs[rank]
	for {
		pc := s.pc[rank]
		if int(pc) >= len(procs) {
			return progress
		}
		ev := &procs[pc]
		switch ev.Kind {
		case EvLocal:
			// Pass through.
		case EvSend:
			s.inc(ev.Chan)
			c.matchPending(s, ev.Peer) // eager delivery, as in the resolver
			if ev.Op == mpi.OpIsend {
				s.out[rank] = append(s.out[rank], slot{ev: pc, matched: true})
			}
		case EvIrecv:
			sl := slot{ev: pc}
			if !ev.Wild && c.takeConcrete(s, ev, c.unmatchedWilds(s, rank)) {
				sl.matched = true
			}
			s.out[rank] = append(s.out[rank], sl)
		case EvRecv:
			if !c.takeConcrete(s, ev, c.unmatchedWilds(s, rank)) {
				return progress
			}
		case EvRecvAny:
			return progress // wildcard branch point
		case EvWait:
			q := s.out[rank]
			if len(q) > 0 {
				if !q[0].matched {
					return progress
				}
				// Shift rather than reslice: the queue keeps its backing
				// array across the states a scratch marking is reused for.
				s.out[rank] = q[:copy(q, q[1:])]
			}
		case EvWaitall:
			for i := range s.out[rank] {
				if !s.out[rank][i].matched {
					return progress
				}
			}
			s.out[rank] = s.out[rank][:0]
		case EvColl:
			group := c.net.Trace.CommGroup(ev.CommID)
			if !c.collReady(s, ev.CommID, group) {
				return progress
			}
			for _, m := range group {
				s.pc[m]++
			}
			progress = true
			continue // the rendezvous advanced our own pc too
		}
		s.pc[rank] = pc + 1
		progress = true
	}
}

// collReady reports whether every member of the communicator is parked
// at a collective on it (arrival counting, as in the resolver).
func (c *checker) collReady(s *vmState, commID int, group []int) bool {
	for _, m := range group {
		if c.done(s, m) {
			return false
		}
		e := &c.net.Procs[m][s.pc[m]]
		if e.Kind != EvColl || e.CommID != commID {
			return false
		}
	}
	return true
}

// drain fires deterministic transitions round-robin to fixpoint,
// producing the canonical quiescent successor.
func (c *checker) drain(s *vmState) {
	for {
		progress := false
		for r := 0; r < c.n; r++ {
			if c.step(s, r) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// enumerate lists the wildcard matches enabled at a quiescent state: for
// every channel holding tokens, the earliest-posted compatible unmatched
// receive of the destination rank may consume one; by the drain's
// fixpoint that receive is always a wildcard. Options are returned in
// deterministic (rank, event, channel) order — the order of their keys —
// in the checker's scratch, valid until the next call.
func (c *checker) enumerate(s *vmState) []option {
	opts := c.opts[:0]
	for rank, in := range c.inbound {
		first := len(opts)
		for _, cw := range in {
			for m := cw.mask & s.nz[cw.w]; m != 0; m &= m - 1 {
				ch := int32(cw.w<<6 | bits.TrailingZeros64(m))
				if w := c.earliestConsumer(s, rank, ch); w >= 0 {
					opts = append(opts, option{rank: int32(rank), ev: w, ch: ch})
				}
			}
		}
		// A rank has few options, found in channel order: sort by key.
		for i := first + 1; i < len(opts); i++ {
			for j := i; j > first && opts[j].key() < opts[j-1].key(); j-- {
				opts[j], opts[j-1] = opts[j-1], opts[j]
			}
		}
	}
	c.opts = opts
	return opts
}

// earliestConsumer returns the event index of the earliest-posted
// unmatched wildcard receive of rank compatible with channel ch, or -1.
// Posting order scans the outstanding queue first, then a blocking
// receive at the control position.
func (c *checker) earliestConsumer(s *vmState, rank int, ch int32) int32 {
	for _, sl := range s.out[rank] {
		if sl.matched {
			continue
		}
		ev := &c.net.Procs[rank][sl.ev]
		if !c.compat(ev, ch) {
			continue
		}
		if ev.Wild {
			return sl.ev
		}
		return -1 // a compatible concrete slot at quiescence is itself shadowed
	}
	if !c.done(s, rank) {
		pc := s.pc[rank]
		if ev := &c.net.Procs[rank][pc]; ev.Kind == EvRecvAny && c.compat(ev, ch) {
			return pc
		}
	}
	return -1
}

// apply commits one wildcard match.
func (c *checker) apply(s *vmState, o option) {
	s.dec(o.ch)
	ev := &c.net.Procs[o.rank][o.ev]
	if ev.Kind == EvRecvAny && s.pc[o.rank] == o.ev {
		s.pc[o.rank] = o.ev + 1
	} else {
		for i := range s.out[o.rank] {
			if s.out[o.rank][i].ev == o.ev {
				s.out[o.rank][i].matched = true
				break
			}
		}
	}
}

// choice is the commitment option o stands for.
func (c *checker) choice(o option) Choice {
	ch := c.net.Chans[o.ch]
	return Choice{
		Rank: int(o.rank), Event: int(o.ev), Source: ch.Src,
		Tag: ch.Tag, Site: c.net.Procs[o.rank][o.ev].Site,
	}
}

// blockedReport describes every unfinished rank's stuck event: the lines of
// the *trace.StuckError Algorithms 1 and 2 report.
func (c *checker) blockedReport(s *vmState) []string {
	var blocked []trace.Blocked
	for r := 0; r < c.n; r++ {
		if !c.done(s, r) {
			ev := &c.net.Procs[r][s.pc[r]]
			blocked = append(blocked, trace.Blocked{Op: ev.Op, Rank: r, Peer: ev.Peer, Tag: ev.Tag, Comm: ev.CommID})
		}
	}
	return trace.Stuck(blocked).Blocked
}

// runs is an append-only store of runs of T — encoded states, sleep sets —
// in chunks. It grows by adding a chunk, never by copying one that is
// full, so a stored run keeps its (chunk, offset) for the whole
// exploration and the bytes allocated stay close to the bytes held. A run
// never spans chunks.
type runs[T any] struct {
	chunks [][]T
}

// runsChunk is the element count of a full-size chunk. The first chunk
// starts empty and grows by append until it is this large, so a net with a
// handful of states pays for a handful.
const runsChunk = 1 << 14

// span locates one run.
type span struct {
	chunk, off, n uint32
}

// tail returns the chunk to append the next run to: one with room for n
// more elements, or the first while append still grows it. What is appended
// is stored only by keep; without it the next run overwrites it.
func (r *runs[T]) tail(n int) []T {
	if len(r.chunks) == 0 {
		r.chunks = append(r.chunks, nil)
	}
	t := r.chunks[len(r.chunks)-1]
	if len(t)+n > cap(t) && cap(t) >= runsChunk {
		t = make([]T, 0, max(n, runsChunk))
		r.chunks = append(r.chunks, t)
	}
	return t
}

// pending is the run appended to t, what tail returned, and not yet kept.
func (r *runs[T]) pending(t []T) []T {
	return t[len(r.chunks[len(r.chunks)-1]):]
}

// keep stores t — what tail returned, with one run appended — and returns
// where that run lives.
func (r *runs[T]) keep(t []T) span {
	last := len(r.chunks) - 1
	sp := span{chunk: uint32(last), off: uint32(len(r.chunks[last])), n: uint32(len(r.pending(t)))}
	r.chunks[last] = t
	return sp
}

func (r *runs[T]) at(sp span) []T {
	return r.chunks[sp.chunk][sp.off : sp.off+sp.n]
}

// record is one explored state in the order it was first counted: where
// its canonical encoding and the sleep set it is explored under live, and
// the match that led to it from its parent record. The records are the
// whole search: the unread suffix is the breadth-first frontier, a parent
// chain is a choice path, and the visited index points into them.
type record struct {
	state  span
	sleep  span
	parent int32 // -1 at the root
	depth  int32 // wildcard choices committed on the way here
	via    option
}

// logChunk is the number of records per chunk of the log (a power of two:
// record i is log[i/logChunk][i%logChunk]).
const logChunk = 1 << 11

// explorer is the state store of one Check: every distinct canonical
// encoding is held once, in states, and is both the visited key and the
// frontier state — a state is decoded into a scratch marking when its turn
// comes, not kept decoded while it waits.
type explorer struct {
	states runs[byte]
	sleeps runs[uint64] // sorted option keys
	log    [][]record
	count  int32

	// index is the visited set: an open-addressed, linearly probed table of
	// hashTag<<32 | record+1 (0 is empty) naming the latest record of every
	// distinct state. A tag hit is only a hint; a lookup answers "seen"
	// after comparing the encoded bytes.
	index    []uint64
	distinct int
	seed     maphash.Seed
	hashMask uint64 // all ones; tests clear bits to force collisions
	// Counts tests pin: states dequeued, children encoded, children already
	// stored (visited hits), options enumerated and options asleep.
	dequeued, children, hits, options, asleep int
}

func (x *explorer) record(i int32) *record {
	return &x.log[i/logChunk][i%logChunk]
}

func (x *explorer) push(r record) int32 {
	last := len(x.log) - 1
	if last < 0 || len(x.log[last]) == logChunk {
		var chunk []record
		if last >= 0 { // the first grows by append, for nets with few states
			chunk = make([]record, 0, logChunk)
		}
		x.log = append(x.log, chunk)
		last++
	}
	x.log[last] = append(x.log[last], r)
	x.count++
	return x.count - 1
}

func (x *explorer) hash(key []byte) uint64 {
	return maphash.Bytes(x.seed, key) & x.hashMask
}

// find probes for key. It returns the index slot that names it, or the
// empty slot where it belongs, and the record it was last explored as
// (-1 when never).
func (x *explorer) find(hash uint64, key []byte) (slot int, rec int32) {
	mask := len(x.index) - 1
	for slot = int(hash) & mask; ; slot = (slot + 1) & mask {
		e := x.index[slot]
		if e == 0 {
			return slot, -1
		}
		if e>>32 != hash>>32 {
			continue
		}
		rec = int32(uint32(e)) - 1
		if bytes.Equal(x.states.at(x.record(rec).state), key) {
			return slot, rec
		}
	}
}

// grow doubles the index once it is half full and re-seats every entry.
func (x *explorer) grow() {
	if 2*(x.distinct+1) <= len(x.index) {
		return
	}
	old := x.index
	x.index = make([]uint64, max(64, 2*len(old)))
	mask := len(x.index) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		h := x.hash(x.states.at(x.record(int32(uint32(e)) - 1).state))
		slot := int(h) & mask
		for x.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		x.index[slot] = e
	}
}

// path materialises the choices committed from the root to record i; the
// root's own path is nil ("choices": null in a report, as it always was).
func (x *explorer) path(c *checker, i int32) []Choice {
	r := x.record(i)
	if r.depth == 0 {
		return nil
	}
	choices := make([]Choice, r.depth)
	for ; r.parent >= 0; r = x.record(r.parent) {
		choices[r.depth-1] = c.choice(r.via)
	}
	return choices
}

// mergeSleep appends the child's sleep set to dst: the inherited set and
// the siblings fired before option o, merged in one pass — both are sorted
// by key, and disjoint, since only options that were not asleep fire. The
// child sleeps on every independently-explored sibling and inherited
// entry; same-rank entries conflict with its choice and are dropped.
func mergeSleep(dst, inherited []uint64, fired []option, o option) []uint64 {
	i, j := 0, 0
	for i < len(inherited) || j < len(fired) {
		var k uint64
		if j == len(fired) || (i < len(inherited) && inherited[i] < fired[j].key()) {
			k, i = inherited[i], i+1
		} else {
			k, j = fired[j].key(), j+1
		}
		if keyRank(k) != o.rank {
			dst = append(dst, k)
		}
	}
	return dst
}

// subset reports a ⊆ b over sorted key slices.
func subset(a, b []uint64) bool {
	j := 0
	for _, k := range a {
		for j < len(b) && b[j] < k {
			j++
		}
		if j >= len(b) || b[j] != k {
			return false
		}
	}
	return true
}

// intersectInto overwrites b with a ∩ b (sorted key slices) and returns it.
func intersectInto(a, b []uint64) []uint64 {
	out := b[:0]
	i := 0
	for _, k := range b {
		for i < len(a) && a[i] < k {
			i++
		}
		if i < len(a) && a[i] == k {
			out = append(out, k)
		}
	}
	return out
}

// add counts the state whose encoding is pending on buf (the states tail)
// as explored under the sleep set pending on sl (the sleeps tail) — unless
// the same bytes were already explored under a subset of it. A state met
// again under other restrictions is explored again under the intersection;
// its bytes are not stored twice. r carries the new record's parent, depth
// and match.
func (x *explorer) add(buf []byte, sl []uint64, r record) bool {
	x.grow()
	key, sleep := x.states.pending(buf), x.sleeps.pending(sl)
	hash := x.hash(key)
	slot, seen := x.find(hash, key)
	if seen >= 0 {
		x.hits++
		stored := x.sleeps.at(x.record(seen).sleep)
		if subset(stored, sleep) {
			return false // already explored under fewer restrictions
		}
		sl = sl[:len(sl)-len(sleep)+len(intersectInto(stored, sleep))]
		r.state = x.record(seen).state
	} else {
		r.state = x.states.keep(buf)
		x.distinct++
	}
	r.sleep = x.sleeps.keep(sl)
	x.index[slot] = hash>>32<<32 | uint64(x.push(r)+1)
	ctrStates.Inc()
	return true
}

// Check is CheckContext without cancellation.
func (n *Net) Check(opts *Options) *Verdict {
	v, _ := n.CheckContext(context.Background(), opts) // Background is never done
	return v
}

// CheckContext explores the net and renders a verdict. With no wildcard
// receives the net is deterministic and the exploration is a single linear
// execution. ctx is polled once per dequeued state; when it is done the
// exploration stops and its error is returned.
func (n *Net) CheckContext(ctx context.Context, opts *Options) (*Verdict, error) {
	return n.check(ctx, opts, &explorer{hashMask: math.MaxUint64})
}

// check is CheckContext exploring into a fresh x (a test seam: a narrow
// x.hashMask makes every lookup collide, and x's counts are left to read).
func (n *Net) check(ctx context.Context, opts *Options, x *explorer) (*Verdict, error) {
	// Records are numbered in 32 bits; a bound past that is past any memory.
	maxStates := min(opts.maxStates(), math.MaxInt32)
	c := newChecker(n)
	x.seed = maphash.MakeSeed()
	v := &Verdict{}
	defer func() { v.StatesExplored = int(x.count) }()

	cur, child := c.newState(), c.newState()
	c.drain(child)
	x.add(child.encode(x.states.tail(child.encodedBound())), x.sleeps.tail(0), record{parent: -1})

	// The log is read in the order it was written, so states are expanded
	// in exactly the order a queue of decoded states would yield them.
	for head := int32(0); head < x.count; head++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x.dequeued++
		e := *x.record(head)
		v.MaxChoiceDepth = max(v.MaxChoiceDepth, int(e.depth))
		cur.decode(x.states.at(e.state))
		if c.allDone(cur) {
			v.Executions++
			continue
		}
		options := c.enumerate(cur)
		if len(options) == 0 {
			// Quiescent, unfinished, nothing to match: deadlock. BFS order
			// makes this the minimal-commitment counterexample.
			v.Counterexample = &Counterexample{
				Choices: x.path(c, head),
				Blocked: c.blockedReport(cur),
			}
			return v, nil
		}
		sleep := x.sleeps.at(e.sleep)
		live := options[:0]
		for _, o := range options {
			if _, asleep := slices.BinarySearch(sleep, o.key()); !asleep {
				live = append(live, o)
			}
		}
		x.options += len(options)
		x.asleep += len(options) - len(live)
		if len(live) == 0 {
			continue // every enabled match is covered by a sibling branch
		}
		v.BranchPoints++
		for i, o := range live {
			child.copyFrom(cur)
			c.apply(child, o)
			c.drain(child)
			buf := child.encode(x.states.tail(child.encodedBound()))
			// sleep may sit in the very chunk the tail extends: it is only
			// read, and only what lies past it is written.
			sl := mergeSleep(x.sleeps.tail(len(sleep)+i), sleep, live[:i], o)
			x.children++
			if x.add(buf, sl, record{parent: head, depth: e.depth + 1, via: o}) && int(x.count) >= maxStates {
				return v, nil
			}
		}
	}
	v.Exhaustive = true
	v.DeadlockFree = true
	return v, nil
}

// ForcedRun executes the single interleaving in which every wildcard
// receive matches the source pins names (per rank, in event order, as
// wildcard.Assign returns them). It reports whether that execution
// completes; if not, blocked describes the stuck state. This is how the
// resolver's match assignment is checked for admission by the net.
func (n *Net) ForcedRun(pins [][]trace.Pin) (completed bool, blocked []string) {
	c := newChecker(n)
	s := c.newState()
	for {
		c.drain(s)
		if c.allDone(s) {
			return true, nil
		}
		options := c.enumerate(s)
		picked := false
		for _, o := range options {
			rankPins := pins[o.rank]
			i, ok := slices.BinarySearchFunc(rankPins, int(o.ev), func(p trace.Pin, ev int) int { return p.Event - ev })
			if ok && rankPins[i].Source == n.Chans[o.ch].Src {
				c.apply(s, o)
				picked = true
				break
			}
		}
		if !picked {
			return false, c.blockedReport(s)
		}
	}
}
