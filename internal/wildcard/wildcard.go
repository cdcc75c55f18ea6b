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
// Assign returns those decisions; Resolve applies them with trace.Pinned,
// which recompresses and re-merges the per-rank streams, so the output trace
// remains scalable.
package wildcard

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/mpi"
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

// message is an in-flight send observed during traversal. It matches only
// receives on its communicator.
type message struct {
	comm int
	tag  int
	src  int32 // world rank; int32 keeps the struct at 24 bytes
	used bool
}

// pendingRecv is a posted receive awaiting a match.
type pendingRecv struct {
	pin     int // index of its decision in the rank's pins; -1 for a concrete source
	comm    int
	tag     int
	src     int32 // world source or mpi.AnySource; int32 keeps the struct at 32 bytes
	matched bool
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
	cursors []*trace.Cursor
	states  []rankState

	// inbox is L2: the messages destined to each rank, in arrival order,
	// past its consumed prefix.
	inbox   [][]message
	pending [][]*pendingRecv // posted receives per rank (match order)
	// outstanding tracks nonblocking requests per rank in post order for
	// Wait semantics: true entries are receives (index into pending history).
	outstanding [][]*pendingRecv // nil entry = completed send

	// pins are the decisions per rank, in event order; an unmatched
	// wildcard's Source is mpi.AnySource.
	pins [][]trace.Pin

	collPending map[int]map[int]bool // commID -> ranks arrived
}

// Resolve runs Algorithm 2 over t and returns an equivalent trace in which
// every wildcard receive names a concrete source. It returns a
// *DeadlockError if the input application can deadlock.
func Resolve(t *trace.Trace) (*trace.Trace, error) {
	defer telemetry.Region("wildcard.resolve")()
	pins, err := Assign(t)
	if err != nil {
		return nil, err
	}
	return trace.Pinned(t, pins), nil
}

// Assign runs Algorithm 2's traversal over t and returns its decisions: per
// rank and in event order, the world source of every wildcard receive — a
// receive whose world source (RSD.WorldPeerFor) is mpi.AnySource, exactly the
// receives the MP-net lowering makes wildcard. It returns a *DeadlockError if
// the input application can deadlock.
func Assign(t *trace.Trace) ([][]trace.Pin, error) {
	n := t.N
	r := &resolver{
		t:           t,
		cursors:     make([]*trace.Cursor, n),
		states:      make([]rankState, n),
		inbox:       make([][]message, n),
		pending:     make([][]*pendingRecv, n),
		outstanding: make([][]*pendingRecv, n),
		pins:        make([][]trace.Pin, n),
		collPending: make(map[int]map[int]bool),
	}
	low := trace.Lower(t)
	for i := 0; i < n; i++ {
		r.cursors[i] = low.Cursor(i)
	}

	for {
		allDone := true
		progress := false
		for rank := 0; rank < n; rank++ {
			if r.states[rank] == done {
				continue
			}
			allDone = false
			ran, err := r.run(rank)
			if err != nil {
				return nil, err
			}
			progress = progress || ran
		}
		if allDone {
			break
		}
		if !progress {
			return nil, r.deadlock()
		}
	}

	for rank, pins := range r.pins {
		if open := slices.IndexFunc(pins, func(p trace.Pin) bool { return p.Source == mpi.AnySource }); open >= 0 {
			return nil, fmt.Errorf("wildcard: rank %d finished with wildcard receive %d unresolved",
				rank, pins[open].Event)
		}
	}
	return r.pins, nil
}

// run advances one rank until it blocks or finishes, returning whether any
// event was processed.
func (r *resolver) run(rank int) (bool, error) {
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
			return progress, nil
		}
		rsd := cur.Cur()
		switch {
		case rsd.Op.IsSendSide():
			r.doSend(rank, rsd)
		case rsd.Op == mpi.OpRecv:
			if !r.doBlockingRecv(rank, rsd) {
				r.states[rank] = blockedRecv
				return progress, nil
			}
		case rsd.Op == mpi.OpIrecv:
			r.doIrecv(rank, rsd)
		case rsd.Op.IsWait():
			if !r.doWait(rank, rsd) {
				r.states[rank] = blockedWait
				return progress, nil
			}
		case rsd.Op.IsCollective():
			if complete, err := r.doCollective(rank, rsd); err != nil || !complete {
				r.states[rank] = blockedRendezvous
				return progress, err
			}
			// The collective completer advanced every member's cursor,
			// including ours; do not advance again.
			progress = true
			continue
		default:
			// Init and other local events pass through.
		}
		cur.Advance()
		r.states[rank] = ready
		progress = true
	}
}

// doSend delivers a message to the destination (the paper's L2 update) and
// tries to match it against the destination's posted receives.
func (r *resolver) doSend(rank int, rsd *trace.RSD) {
	dst := rsd.WorldPeerFor(rank, r.t)
	r.inbox[dst] = append(r.inbox[dst], message{comm: rsd.CommID, tag: rsd.Tag, src: int32(rank)})
	r.matchInbox(dst)
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
		if src, ok := r.takeMessage(rank, pr.comm, int(pr.src), pr.tag); ok {
			r.complete(rank, pr, src)
		}
	}
	r.compactPending(rank)
}

// takeMessage consumes the first message on comm that a receive of src and
// tag accepts and returns its sender. The inbox is resliced past its
// consumed prefix, so no message is scanned again once every message before
// it is consumed.
func (r *resolver) takeMessage(rank, comm, src, tag int) (int, bool) {
	inbox := r.inbox[rank]
	for len(inbox) > 0 && inbox[0].used {
		inbox = inbox[1:]
	}
	r.inbox[rank] = inbox
	for i := range inbox {
		m := &inbox[i]
		if m.used || m.comm != comm || src != mpi.AnySource && int(m.src) != src || tag != mpi.AnyTag && m.tag != tag {
			continue
		}
		m.used = true
		return int(m.src), true
	}
	return 0, false
}

// decide records the decision for the wildcard receive at rank's cursor:
// source src, or mpi.AnySource until complete fills it in. It returns the
// decision's index in the rank's pins.
func (r *resolver) decide(rank, src int) int {
	r.pins[rank] = append(r.pins[rank], trace.Pin{Event: r.cursors[rank].Index(), Source: src})
	if src != mpi.AnySource {
		ctrResolved.Inc()
	}
	return len(r.pins[rank]) - 1
}

// complete marks a pending receive matched by a message from src and, for a
// wildcard, fixes its decision to that sender (the heart of Algorithm 2).
func (r *resolver) complete(rank int, pr *pendingRecv, src int) {
	pr.matched = true
	if pr.pin >= 0 {
		r.pins[rank][pr.pin].Source = src
		ctrResolved.Inc()
	}
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
	from, ok := r.takeMessage(rank, rsd.CommID, src, rsd.Tag)
	if !ok {
		return false
	}
	if src == mpi.AnySource {
		r.decide(rank, from)
	}
	return true
}

// doIrecv posts a nonblocking receive (matching immediately if possible).
func (r *resolver) doIrecv(rank int, rsd *trace.RSD) {
	src := rsd.WorldPeerFor(rank, r.t)
	pr := &pendingRecv{pin: -1, comm: rsd.CommID, tag: rsd.Tag, src: int32(src)}
	if src == mpi.AnySource {
		pr.pin = r.decide(rank, mpi.AnySource)
	}
	if from, ok := r.takeMessage(rank, pr.comm, src, pr.tag); ok {
		r.complete(rank, pr, from)
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
	return true
}

// doCollective performs the rendezvous of Algorithm 1 within Algorithm 2:
// all communicator members must arrive before any proceeds. It returns
// false while participants are missing, and Algorithm 1's error when a
// member arrives at another operation than the members before it, whose
// cursors all stand at the first arrival's.
func (r *resolver) doCollective(rank int, rsd *trace.RSD) (bool, error) {
	comm := r.t.CommGroup(rsd.CommID)
	pc := r.collPending[rsd.CommID]
	if pc == nil {
		pc = make(map[int]bool)
		r.collPending[rsd.CommID] = pc
	}
	for m := range pc {
		if first := r.cursors[m].Cur().Op; first != rsd.Op {
			return false, fmt.Errorf("wildcard: collective mismatch on comm %d: %v vs %v", rsd.CommID, first, rsd.Op)
		}
		break
	}
	pc[rank] = true
	if len(pc) < len(comm) {
		return false, nil
	}
	// Complete: advance every member's cursor.
	for _, member := range comm {
		r.cursors[member].Advance()
		if r.states[member] == blockedRendezvous {
			r.states[member] = ready
		}
	}
	delete(r.collPending, rsd.CommID)
	return true, nil
}

// deadlock builds the error report for a stuck traversal.
func (r *resolver) deadlock() *DeadlockError {
	var blocked []string
	for rank := 0; rank < r.t.N; rank++ {
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
