// Package wildcard implements Algorithm 2 of the paper: eliminating
// performance nondeterminism by resolving MPI_ANY_SOURCE receives into
// concrete sources, with a sufficient deadlock-detection scheme.
//
// The resolver walks all ranks' event streams concurrently (one traversal
// context per rank), maintaining per-rank lists of unmatched sends and
// receives (the paper's L1/L2). Point-to-point events are matched in
// FIFO-per-sender order; when a wildcard receive matches, its source is
// fixed to the matching sender. Traversal of a rank stops when it is blocked
// on a receive, a wait, or a collective, and another rank runs; if a full
// sweep of all ranks makes no progress, a potential deadlock in the original
// application has been found (Figure 5) and an error is reported rather than
// hanging.
//
// The resolved per-rank streams are recompressed and re-merged, so the
// output trace remains scalable.
package wildcard

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ctrResolved counts wildcard receives fixed to a concrete source.
var ctrResolved = telemetry.NewCounter("wildcard.resolved")

// Present performs the O(r) pre-check: does the compressed trace contain any
// wildcard receives?
func Present(t *trace.Trace) bool {
	found := false
	for _, g := range t.Groups {
		trace.Leaves(g.Seq, func(r *trace.RSD) {
			if r.Wildcard {
				found = true
			}
		})
	}
	return found
}

// DeadlockError reports a potential deadlock uncovered during resolution.
// Per Section 4.4 this is a sufficient (not necessary) detection: the input
// application can deadlock under at least one message ordering.
type DeadlockError struct {
	// Blocked describes each stuck rank and the event it is blocked on.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return "wildcard: potential deadlock in input application: " + strings.Join(e.Blocked, "; ")
}

// message is an in-flight send observed during traversal.
type message struct {
	src  int // world rank
	tag  int
	size int
	used bool
}

// pendingRecv is a posted receive awaiting a match.
type pendingRecv struct {
	leaf     *trace.RSD // emitted output leaf (mutated when resolved)
	src      int        // world source or mpi.AnySource
	tag      int
	matched  bool
	blocking bool
}

type rankState int

const (
	ready rankState = iota
	blockedRecv
	blockedWait
	blockedRendezvous
	done
)

// resolver holds the traversal state of Algorithm 2.
type resolver struct {
	t       *trace.Trace
	n       int
	cursors []*trace.Cursor
	states  []rankState

	inbox   [][]*message     // L2: messages destined to each rank
	pending [][]*pendingRecv // posted receives per rank (match order)
	// outstanding tracks nonblocking requests per rank in post order for
	// Wait semantics: true entries are receives (index into pending history).
	outstanding [][]*pendingRecv // nil entry = completed send

	// buffered output per rank: leaves already traversed but not yet safe to
	// compress (a wildcard ahead of them may still be unresolved).
	buffer   [][]*trace.RSD
	builders []*trace.Builder

	collPending map[int]map[int]*trace.RSD // commID -> rank -> arrival
}

// Resolve runs Algorithm 2 over t and returns an equivalent trace in which
// every wildcard receive names a concrete source. It returns a
// *DeadlockError if the input application can deadlock.
func Resolve(t *trace.Trace) (*trace.Trace, error) {
	defer telemetry.Region("wildcard.resolve")()
	n := t.N
	r := &resolver{
		t:           t,
		n:           n,
		cursors:     make([]*trace.Cursor, n),
		states:      make([]rankState, n),
		inbox:       make([][]*message, n),
		pending:     make([][]*pendingRecv, n),
		outstanding: make([][]*pendingRecv, n),
		buffer:      make([][]*trace.RSD, n),
		builders:    make([]*trace.Builder, n),
		collPending: make(map[int]map[int]*trace.RSD),
	}
	for i := 0; i < n; i++ {
		g := t.GroupOf(i)
		if g == nil {
			return nil, fmt.Errorf("wildcard: rank %d missing from trace", i)
		}
		r.cursors[i] = trace.NewCursor(g.Seq, i)
		r.builders[i] = trace.NewBuilder()
	}

	for {
		allDone := true
		progress := false
		for rank := 0; rank < n; rank++ {
			if r.states[rank] == done {
				continue
			}
			allDone = false
			if r.run(rank) {
				progress = true
			}
		}
		if allDone {
			break
		}
		if !progress {
			return nil, r.deadlock()
		}
	}

	seqs := make([][]trace.Node, n)
	for i := 0; i < n; i++ {
		r.flush(i)
		if len(r.buffer[i]) != 0 {
			return nil, fmt.Errorf("wildcard: rank %d finished with %d unresolved receives",
				i, len(r.buffer[i]))
		}
		seqs[i] = r.builders[i].Seq()
	}
	// The resolver's builders are discarded after this point, so the merge
	// may consume their sequences in place.
	return trace.MergeRankSeqsOwned(n, trace.CloneComms(t.Comms), seqs), nil
}

// run advances one rank until it blocks or finishes, returning whether any
// event was processed.
func (r *resolver) run(rank int) bool {
	progress := false
	for {
		cur := r.cursors[rank]
		if cur.Done() {
			// Transitioning to done is progress: the rank's cursor may have
			// been advanced past its last event by another rank's collective
			// completion since our last visit.
			if r.states[rank] != done {
				progress = true
			}
			r.states[rank] = done
			return progress
		}
		rsd := cur.Cur()
		switch {
		case rsd.Op.IsSendSide():
			r.doSend(rank, rsd)
		case rsd.Op == mpi.OpRecv:
			if !r.doBlockingRecv(rank, rsd) {
				r.states[rank] = blockedRecv
				return progress
			}
		case rsd.Op == mpi.OpIrecv:
			r.doIrecv(rank, rsd)
		case rsd.Op.IsWait():
			if !r.doWait(rank, rsd) {
				r.states[rank] = blockedWait
				return progress
			}
		case rsd.Op.IsCollective():
			if !r.doCollective(rank, rsd) {
				r.states[rank] = blockedRendezvous
				return progress
			}
			// The collective completer advanced every member's cursor,
			// including ours; do not advance again.
			progress = true
			continue
		default:
			// Init and other local events pass through.
			r.emit(rank, r.leafFor(rank, rsd))
		}
		cur.Advance()
		r.states[rank] = ready
		progress = true
	}
}

// leafFor copies rsd as a single-rank leaf of the wildcard-free output
// trace, carrying the source's mean compute time.
func (r *resolver) leafFor(rank int, rsd *trace.RSD) *trace.RSD {
	leaf := new(trace.RSD)
	rsd.CopyFor(leaf, rank, taskset.Of(rank), r.t, rsd.ComputeMeanAt(r.cursors[rank].InnermostIter() == 0))
	leaf.Wildcard = false
	return leaf
}

// emit appends a leaf to the rank's ordered buffer and flushes the resolved
// prefix into the compressor.
func (r *resolver) emit(rank int, leaf *trace.RSD) {
	r.buffer[rank] = append(r.buffer[rank], leaf)
	r.flush(rank)
}

func (r *resolver) flush(rank int) {
	buf := r.buffer[rank]
	i := 0
	for i < len(buf) && buf[i].Peer.Kind != trace.ParamAny {
		r.builders[rank].Append(buf[i])
		i++
	}
	r.buffer[rank] = buf[i:]
}

// doSend delivers a message to the destination (the paper's L2 update) and
// tries to match it against the destination's posted receives.
func (r *resolver) doSend(rank int, rsd *trace.RSD) {
	dst := rsd.WorldPeerFor(rank, r.t)
	msg := &message{src: rank, tag: rsd.Tag, size: rsd.Size}
	if dst >= 0 && dst < r.n {
		r.inbox[dst] = append(r.inbox[dst], msg)
		r.matchInbox(dst)
	}
	leaf := r.leafFor(rank, rsd)
	r.emit(rank, leaf)
	if rsd.Op == mpi.OpIsend {
		r.outstanding[rank] = append(r.outstanding[rank], nil) // sends complete eagerly
	}
}

// matchInbox matches newly delivered messages against the destination's
// posted receives, in posting order with FIFO-per-sender message order.
func (r *resolver) matchInbox(rank int) {
	for _, pr := range r.pending[rank] {
		if pr.matched {
			continue
		}
		if m := r.takeMessage(rank, pr.src, pr.tag); m != nil {
			r.complete(rank, pr, m)
		}
	}
	r.compactPending(rank)
}

// takeMessage removes and returns the first compatible unconsumed message.
func (r *resolver) takeMessage(rank, src, tag int) *message {
	for _, m := range r.inbox[rank] {
		if m.used {
			continue
		}
		if src != mpi.AnySource && m.src != src {
			continue
		}
		if tag != mpi.AnyTag && m.tag != tag {
			continue
		}
		m.used = true
		return m
	}
	return nil
}

// complete marks a pending receive matched and, for wildcards, resolves the
// output leaf's source to the matching sender (the heart of Algorithm 2).
func (r *resolver) complete(rank int, pr *pendingRecv, m *message) {
	pr.matched = true
	if pr.src == mpi.AnySource {
		r.pin(pr.leaf, m.src)
		r.flush(rank)
	}
}

// pin fixes a wildcard output leaf's source to the world rank that matched.
func (r *resolver) pin(leaf *trace.RSD, src int) {
	Pin(r.t, leaf, src)
	ctrResolved.Inc()
}

// Pin makes world rank src the source of a receive leaf of t, in the
// numbering of the leaf's communicator.
func Pin(t *trace.Trace, leaf *trace.RSD, src int) {
	commSrc, ok := t.CommRankOf(leaf.CommID, src)
	if !ok {
		commSrc = src
	}
	leaf.Peer = trace.AbsParam(commSrc)
}

func (r *resolver) compactPending(rank int) {
	live := r.pending[rank][:0]
	for _, pr := range r.pending[rank] {
		if !pr.matched {
			live = append(live, pr)
		}
	}
	r.pending[rank] = live
}

// doBlockingRecv tries to complete a blocking receive; it returns false if
// no compatible message is available yet.
func (r *resolver) doBlockingRecv(rank int, rsd *trace.RSD) bool {
	src := rsd.WorldPeerFor(rank, r.t)
	m := r.takeMessage(rank, src, rsd.Tag)
	if m == nil {
		return false
	}
	leaf := r.leafFor(rank, rsd)
	if rsd.Peer.Kind == trace.ParamAny {
		r.pin(leaf, m.src)
	}
	r.emit(rank, leaf)
	return true
}

// doIrecv posts a nonblocking receive (matching immediately if possible).
func (r *resolver) doIrecv(rank int, rsd *trace.RSD) {
	leaf := r.leafFor(rank, rsd)
	pr := &pendingRecv{leaf: leaf, src: rsd.WorldPeerFor(rank, r.t), tag: rsd.Tag}
	r.emit(rank, leaf)
	if m := r.takeMessage(rank, pr.src, pr.tag); m != nil {
		r.complete(rank, pr, m)
	} else {
		r.pending[rank] = append(r.pending[rank], pr)
	}
	r.outstanding[rank] = append(r.outstanding[rank], pr)
}

// doWait completes outstanding requests: Waitall completes everything;
// Wait completes the oldest outstanding request. It returns false while a
// required receive is still unmatched.
func (r *resolver) doWait(rank int, rsd *trace.RSD) bool {
	out := r.outstanding[rank]
	if rsd.Op == mpi.OpWait {
		// Oldest outstanding request.
		if len(out) > 0 {
			if pr := out[0]; pr != nil && !pr.matched {
				return false
			}
			r.outstanding[rank] = out[1:]
		}
	} else {
		for _, pr := range out {
			if pr != nil && !pr.matched {
				return false
			}
		}
		r.outstanding[rank] = out[:0]
	}
	r.emit(rank, r.leafFor(rank, rsd))
	return true
}

// doCollective performs the rendezvous of Algorithm 1 within Algorithm 2:
// all communicator members must arrive before any proceeds. It returns
// false while participants are missing. A malformed trace is handled as the
// MP-net checker handles it: a collective on a communicator with no group
// passes through, and one on a group without the caller never completes.
func (r *resolver) doCollective(rank int, rsd *trace.RSD) bool {
	comm := r.t.CommGroup(rsd.CommID)
	if len(comm) == 0 {
		comm = []int{rank}
	} else if !slices.Contains(comm, rank) {
		return false
	}
	pc := r.collPending[rsd.CommID]
	if pc == nil {
		pc = make(map[int]*trace.RSD)
		r.collPending[rsd.CommID] = pc
	}
	pc[rank] = rsd
	if len(pc) < len(comm) {
		return false
	}
	// Complete: emit per member and advance all cursors.
	for _, member := range comm {
		r.emit(member, r.leafFor(member, pc[member]))
		r.cursors[member].Advance()
		if r.states[member] == blockedRendezvous {
			r.states[member] = ready
		}
	}
	delete(r.collPending, rsd.CommID)
	return true
}

// deadlock builds the error report for a stuck traversal.
func (r *resolver) deadlock() *DeadlockError {
	var blocked []string
	for rank := 0; rank < r.n; rank++ {
		if r.states[rank] == done {
			continue
		}
		cur := r.cursors[rank].Cur()
		desc := "finished"
		if cur != nil {
			desc = fmt.Sprintf("rank %d blocked on %v (peer %v, tag %d)", rank, cur.Op, cur.Peer, cur.Tag)
		}
		blocked = append(blocked, desc)
	}
	sort.Strings(blocked)
	return &DeadlockError{Blocked: blocked}
}
