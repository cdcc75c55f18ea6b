// Package wildcard implements Algorithm 2 of the paper: eliminating
// performance nondeterminism by resolving MPI_ANY_SOURCE receives into
// concrete sources, with a sufficient deadlock-detection scheme.
//
// The resolver walks all ranks' event streams concurrently, one traversal
// context (a trace.Cursor) per rank, and keeps per rank the paper's two
// lists: L2, the messages sent to it and not yet received, and L1, its
// posted receives not yet matched, which are the unmatched receives of its
// outstanding nonblocking requests. Point-to-point events are matched in
// FIFO-per-sender order on their communicator; when a wildcard receive
// matches, its source is fixed to the matching sender. A rank runs until it
// blocks on a receive, a wait or a collective, and the next rank runs. A
// collective is Algorithm 1's rendezvous: each member arrives at its
// communicator position, and the last arrival releases them all. A sweep of
// all ranks in which no cursor advanced ends the traversal: every rank has
// finished, or the ones that have not are stuck, a potential deadlock in the
// original application (Figure 5), reported with the event and communicator
// each stands at rather than hanging.
//
// Assign returns those decisions; Resolve applies them with trace.Pinned,
// which recompresses and re-merges the per-rank streams, so the output trace
// remains scalable.
package wildcard

import (
	"fmt"
	"slices"
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
	// Blocked describes each stuck rank and the event it is blocked on, as
	// "rank R blocked on OP (peer P, tag T, comm C)", sorted.
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

// pendingRecv is a posted nonblocking receive. It stays in its rank's
// outstanding list until a wait completes it, matched.
type pendingRecv struct {
	pin     int // index of its decision in the rank's pins; -1 for a concrete source
	comm    int
	tag     int
	src     int32 // world source or mpi.AnySource; int32 keeps the struct at 32 bytes
	matched bool
}

// resolver holds the traversal state of Algorithm 2: per rank a traversal
// context (its cursor), L2 (its inbox), L1 (the unmatched receives of its
// outstanding list) and its decisions, plus the collective rendezvous in
// progress.
type resolver struct {
	t       *trace.Trace
	cursors []*trace.Cursor

	// inbox is L2: the messages destined to each rank, in arrival order,
	// past its consumed prefix.
	inbox [][]message
	// outstanding holds each rank's nonblocking requests in post order, for
	// the matching order of its posted receives and for Wait semantics; a
	// nil entry is a send, complete at once. Its unmatched receives are L1.
	outstanding [][]*pendingRecv

	// pins are the decisions per rank, in event order; an unmatched
	// wildcard's Source is mpi.AnySource.
	pins [][]trace.Pin

	// arrived holds, per communicator, the collective each member stands at
	// by communicator position, nil until it arrives: a rank that is visited
	// again at its collective fills its own slot again.
	arrived map[int][]*trace.RSD
	// steps counts cursor advances; a sweep that leaves it unchanged ends the
	// traversal.
	steps int
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
		inbox:       make([][]message, n),
		outstanding: make([][]*pendingRecv, n),
		pins:        make([][]trace.Pin, n),
		arrived:     make(map[int][]*trace.RSD),
	}
	low := trace.Lower(t)
	for i := 0; i < n; i++ {
		r.cursors[i] = low.Cursor(i)
	}

	// Sweep the ranks until a sweep advances no cursor: then every rank has
	// finished, or those that have not are stuck.
	for swept := -1; swept != r.steps; {
		swept = r.steps
		for rank := range r.cursors {
			if err := r.run(rank); err != nil {
				return nil, err
			}
		}
	}
	if blocked := r.blocked(); len(blocked) > 0 {
		return nil, &DeadlockError{Blocked: blocked}
	}

	for rank, pins := range r.pins {
		if open := slices.IndexFunc(pins, func(p trace.Pin) bool { return p.Source == mpi.AnySource }); open >= 0 {
			return nil, fmt.Errorf("wildcard: rank %d finished with wildcard receive %d unresolved",
				rank, pins[open].Event)
		}
	}
	return r.pins, nil
}

// run advances one rank until it blocks or finishes.
func (r *resolver) run(rank int) error {
	cur := r.cursors[rank]
	for rsd := cur.Cur(); rsd != nil; rsd = cur.Cur() {
		switch {
		case rsd.Op.IsSendSide():
			r.doSend(rank, rsd)
		case rsd.Op == mpi.OpRecv:
			if !r.doBlockingRecv(rank, rsd) {
				return nil
			}
		case rsd.Op == mpi.OpIrecv:
			r.doIrecv(rank, rsd)
		case rsd.Op.IsWait():
			if !r.doWait(rank, rsd) {
				return nil
			}
		case rsd.Op.IsCollective():
			// A completed rendezvous advanced every member's cursor,
			// including ours; do not advance again.
			if complete, err := r.arrive(rank, rsd); err != nil || !complete {
				return err
			}
			continue
		default:
			// Init and other local events pass through.
		}
		cur.Advance()
		r.steps++
	}
	return nil
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
	for _, pr := range r.outstanding[rank] {
		if pr == nil || pr.matched {
			continue
		}
		if src, ok := r.takeMessage(rank, pr.comm, int(pr.src), pr.tag); ok {
			r.complete(rank, pr, src)
		}
	}
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

// complete marks a posted receive matched by a message from src and, for a
// wildcard, fixes its decision to that sender (the heart of Algorithm 2).
func (r *resolver) complete(rank int, pr *pendingRecv, src int) {
	pr.matched = true
	if pr.pin >= 0 {
		r.pins[rank][pr.pin].Source = src
		ctrResolved.Inc()
	}
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

// arrive performs the rendezvous of Algorithm 1 within Algorithm 2: all
// communicator members must arrive before any proceeds. rank arrives at its
// communicator position; the last arrival advances every member's cursor and
// arrive returns true. It returns Algorithm 1's error when rank arrives at
// another operation than the member at the lowest arrived position.
func (r *resolver) arrive(rank int, rsd *trace.RSD) (bool, error) {
	comm := r.t.CommGroup(rsd.CommID)
	arrived := r.arrived[rsd.CommID]
	if arrived == nil {
		arrived = make([]*trace.RSD, len(comm))
		r.arrived[rsd.CommID] = arrived
	}
	if i := slices.IndexFunc(arrived, func(a *trace.RSD) bool { return a != nil }); i >= 0 && arrived[i].Op != rsd.Op {
		return false, fmt.Errorf("wildcard: collective mismatch on comm %d: %v vs %v", rsd.CommID, arrived[i].Op, rsd.Op)
	}
	pos, _ := r.t.CommRankOf(rsd.CommID, rank)
	arrived[pos] = rsd
	if slices.Contains(arrived, nil) {
		return false, nil
	}
	clear(arrived)
	for _, member := range comm {
		r.cursors[member].Advance()
	}
	r.steps += len(comm)
	return true, nil
}

// blocked describes every unfinished rank of a traversal that stopped: the
// event it stands at, with its communicator, sorted.
func (r *resolver) blocked() []string {
	var blocked []string
	for rank, cur := range r.cursors {
		if rsd := cur.Cur(); rsd != nil {
			blocked = append(blocked, fmt.Sprintf("rank %d blocked on %v (peer %v, tag %d, comm %d)",
				rank, rsd.Op, rsd.Peer, rsd.Tag, rsd.CommID))
		}
	}
	slices.Sort(blocked)
	return blocked
}
