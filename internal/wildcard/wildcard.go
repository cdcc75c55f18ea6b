// Package wildcard implements Algorithm 2 of the paper: eliminating
// performance nondeterminism by resolving MPI_ANY_SOURCE receives into
// concrete sources, with a sufficient deadlock-detection scheme.
//
// The resolver walks every rank's events on trace.Lowered.Walk, the traversal
// Algorithm 1 runs on too, one unit per rank, and keeps per rank the paper's
// two lists: L2, the messages sent to it and not yet received, and L1, its
// posted receives not yet matched (the unmatched receives of its outstanding
// nonblocking requests). Messages match in FIFO-per-sender order on their
// communicator; a wildcard receive's source is fixed to the sender it
// matches. A rank runs until it blocks on a receive or a wait, finishes, or
// stands at a collective, where the walk's rendezvous takes over. A walk that
// ends with ranks short of their end is a potential deadlock in the original
// application (Figure 5), reported with the event each stands at.
//
// Assign returns those decisions; Resolve applies them with trace.Pinned,
// which recompresses and re-merges the per-rank streams, so the output trace
// remains scalable.
package wildcard

import (
	"fmt"
	"slices"

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
type DeadlockError = trace.StuckError

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

// resolver holds the matching state of Algorithm 2: per rank L2 (its inbox),
// L1 (the unmatched receives of its outstanding list) and its decisions.
type resolver struct {
	t *trace.Trace

	// inbox is L2: the messages destined to each rank, in arrival order;
	// head is the length of each inbox's consumed prefix.
	inbox [][]message
	head  []int
	// outstanding holds each rank's nonblocking requests in post order, for
	// the matching order of its posted receives and for Wait semantics; a
	// nil entry is a send, complete at once. Its unmatched receives are L1.
	outstanding [][]*pendingRecv

	// pins are the decisions per rank, in event order; an unmatched
	// wildcard's Source is mpi.AnySource.
	pins [][]trace.Pin
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
// the input application can deadlock, a *trace.MismatchError if its
// collectives disagree.
func Assign(t *trace.Trace) ([][]trace.Pin, error) {
	n := t.N
	r := &resolver{
		t:           t,
		inbox:       make([][]message, n),
		head:        make([]int, n),
		outstanding: make([][]*pendingRecv, n),
		pins:        make([][]trace.Pin, n),
	}
	units, ranks := make([][]int, n), taskset.Range(0, n-1).Members()
	for i := range ranks {
		units[i] = ranks[i : i+1 : i+1]
	}
	if err := trace.Lower(t).Walk(units, r.run, nil); err != nil {
		return nil, err
	}

	for rank, pins := range r.pins {
		if open := slices.IndexFunc(pins, func(p trace.Pin) bool { return p.Source == mpi.AnySource }); open >= 0 {
			return nil, fmt.Errorf("wildcard: rank %d finished with wildcard receive %d unresolved",
				rank, pins[open].Event)
		}
	}
	return r.pins, nil
}

// run advances rank's cursor until it blocks, finishes or stands at a
// collective.
func (r *resolver) run(rank int, cur *trace.Cursor) {
	for rsd := cur.Cur(); rsd != nil && !rsd.Op.IsCollective(); rsd = cur.Cur() {
		switch {
		case rsd.Op.IsSendSide():
			r.doSend(rank, rsd)
		case rsd.Op == mpi.OpRecv:
			if !r.doBlockingRecv(rank, cur.Index(), rsd) {
				return
			}
		case rsd.Op == mpi.OpIrecv:
			r.doIrecv(rank, cur.Index(), rsd)
		case rsd.Op.IsWait():
			if !r.doWait(rank, rsd) {
				return
			}
		default:
			// Init and other local events pass through.
		}
		cur.Advance()
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
// tag accepts and returns its sender. No message is scanned again once every
// message before it is consumed, and an inbox consumed whole starts over in
// its storage.
func (r *resolver) takeMessage(rank, comm, src, tag int) (int, bool) {
	inbox, h := r.inbox[rank], r.head[rank]
	for h < len(inbox) && inbox[h].used {
		h++
	}
	if h == len(inbox) {
		inbox, h = inbox[:0], 0
		r.inbox[rank] = inbox
	}
	r.head[rank] = h
	for i := h; i < len(inbox); i++ {
		m := &inbox[i]
		if m.used || m.comm != comm || src != mpi.AnySource && int(m.src) != src || tag != mpi.AnyTag && m.tag != tag {
			continue
		}
		m.used = true
		return int(m.src), true
	}
	return 0, false
}

// decide records the decision for rank's wildcard receive event: source
// src, or mpi.AnySource until complete fills it in. It returns the
// decision's index in the rank's pins.
func (r *resolver) decide(rank, event, src int) int {
	r.pins[rank] = append(r.pins[rank], trace.Pin{Event: event, Source: src})
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
func (r *resolver) doBlockingRecv(rank, event int, rsd *trace.RSD) bool {
	src := rsd.WorldPeerFor(rank, r.t)
	from, ok := r.takeMessage(rank, rsd.CommID, src, rsd.Tag)
	if !ok {
		return false
	}
	if src == mpi.AnySource {
		r.decide(rank, event, from)
	}
	return true
}

// doIrecv posts a nonblocking receive (matching immediately if possible).
func (r *resolver) doIrecv(rank, event int, rsd *trace.RSD) {
	src := rsd.WorldPeerFor(rank, r.t)
	pr := &pendingRecv{pin: -1, comm: rsd.CommID, tag: rsd.Tag, src: int32(src)}
	if src == mpi.AnySource {
		pr.pin = r.decide(rank, event, mpi.AnySource)
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
