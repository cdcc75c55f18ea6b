// Package align implements Algorithm 1 of the paper: combining per-node
// collective operations recorded at different call sites into single RSDs
// that name the complete participant set, so the benchmark generator can
// emit one statically-scoped collective statement (Figure 3's hoisting).
//
// The paper's algorithm walks the compressed trace with one traversal
// context (cursor) per rank. Non-collective events of the running rank are
// appended to the output queue; when the running rank reaches a collective,
// its traversal stops until every other member of the communicator has
// arrived at the same collective, at which point a single merged RSD is
// emitted and traversal resumes at the communicator's first member. The
// output queue is recompressed on the fly, so the aligned trace remains
// scalable in length (the paper's guarantee 3).
//
// Here the rendezvous is the paper's, rank by rank, but the traversal
// context belongs to a class of ranks that walk the same events
// (lockstepClasses): one cursor, one re-compressed segment that every member
// names in the merge. O(c*e) emission for c classes plus O(p*s) folding of
// compressed segments, where a context per rank is O(p*e); see DESIGN.md
// Section 10.
package align

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ctrRounds counts merged collective rounds emitted by Algorithm 1.
var ctrRounds = telemetry.NewCounter("align.rounds")

// Needed performs the paper's O(r) pre-check: it scans the compressed trace
// (not the expanded events) for collective RSDs whose recorded participant
// set is a proper subset of their communicator — the signature of a
// collective split across call sites or behaviour groups.
func Needed(t *trace.Trace) bool {
	needed := false
	for _, g := range t.Groups {
		trace.Leaves(g.Seq, func(r *trace.RSD) {
			if !r.Op.IsCollective() {
				return
			}
			comm := t.CommGroup(r.CommID)
			participants := comm
			if r.Op == mpi.OpCommSplit && r.NewCommID != 0 {
				// Split leaves legitimately carry only their color's members.
				participants = r.Group
			}
			if r.Ranks.Size() < len(participants) {
				needed = true
			}
		})
	}
	return needed
}

// pendingColl tracks one in-progress collective rendezvous on a
// communicator. Both slices are indexed by communicator position: the pooled
// compute sample is a floating-point sum and must not depend on the order
// the traversal reached the members in.
type pendingColl struct {
	arrived []*trace.RSD // a member's RSD, nil until it arrives
	means   []float64    // its per-instance compute mean
}

// Align runs Algorithm 1 and returns a new trace in global-queue form: a
// single group covering all ranks whose sequence interleaves per-rank
// point-to-point runs with full-participant collective RSDs, preserving each
// rank's event order. It returns an error when the rendezvous cannot
// complete, which indicates mismatched collectives in the input application.
func Align(t *trace.Trace) (*trace.Trace, error) {
	return alignWith(t, lockstepClasses, trace.NewStreamBuilder)
}

// lockstep is the traversal context of one class: one cursor, and one stream
// builder for the segment, the class's events since the last completed
// collective. Its leaves carry the first member's singleton set: it is the
// sequence that member alone would have built.
type lockstep struct {
	first, size int
	ranks       taskset.Set // {first}
	cur         *trace.Cursor
	seg         *trace.Builder
	// ran: a member has walked, and emitted, the stretch from the class's
	// last collective to cur; progressed: the stretch holds an event.
	ran, progressed bool
}

// lockstepClasses returns each rank's class, numbered by first member. Two
// ranks share a class when they are in the same group, members of exactly
// the same leaves of its sequence (refined leaf by leaf, nothing is hashed)
// and of no leaf with a vector peer, the one field RSD.CopyFor resolves per
// rank: they emit, up to the rank set, the same leaves. Their segments are
// equal too if every collective has N members — it completes with every
// rank standing at it. Behind one of fewer, where a non-member stands
// depends on the order of the visits, and every rank is alone.
func lockstepClasses(t *trace.Trace, groupOf []int) []int {
	class := slices.Clone(groupOf)
	members := make([][]int, len(t.Groups))
	for r, gi := range groupOf {
		members[gi] = append(members[gi], r)
	}
	// to[c] is the class of c's members inside the leaf being visited, while
	// stamp[c] names that leaf.
	next, leaf, alone := len(t.Groups), 0, false
	to, stamp := make([]int, next), make([]int, next)
	for gi := range t.Groups {
		trace.Leaves(t.Groups[gi].Seq, func(x *trace.RSD) {
			alone = alone || x.Op.IsCollective() && len(t.CommGroup(x.CommID)) != t.N
			leaf++
			for _, r := range members[gi] {
				if !x.Ranks.Contains(r) {
					continue
				}
				if c := class[r]; stamp[c] != leaf || x.Peer.Kind == trace.ParamVec {
					stamp[c], to[c] = leaf, next
					next, to, stamp = next+1, append(to, 0), append(stamp, 0)
				}
				class[r] = to[class[r]]
			}
		})
	}
	byFirst := map[int]int{}
	for r, c := range class {
		if alone {
			c = next + r
		}
		if _, ok := byFirst[c]; !ok {
			byFirst[c] = len(byFirst)
		}
		class[r] = byFirst[c]
	}
	return class
}

// alignWith is Align with the classifier and the segment builders'
// constructor as parameters: tests run the same pass one rank per class, or
// on builders that never recycle a leaf.
func alignWith(t *trace.Trace, classify func(*trace.Trace, []int) []int, newSegment func(window int) *trace.Builder) (*trace.Trace, error) {
	defer telemetry.Region("align.run")()
	n := t.N
	if n <= 0 {
		return nil, fmt.Errorf("align: trace of %d ranks", n)
	}
	groupOf := make([]int, n) // the first group that holds the rank
	for r := range groupOf {
		groupOf[r] = slices.IndexFunc(t.Groups, func(g trace.Group) bool { return g.Ranks.Contains(r) })
		if groupOf[r] < 0 {
			return nil, fmt.Errorf("align: rank %d missing from trace", r)
		}
	}
	classOf := classify(t, groupOf)
	var classes []*lockstep
	for r, c := range classOf {
		if c == len(classes) {
			classes = append(classes, &lockstep{first: r, ranks: taskset.Of(r),
				cur: trace.NewCursor(t.Groups[groupOf[r]].Seq, r), seg: newSegment(trace.DefaultMaxWindow)})
		}
		classes[c].size++
	}

	out := trace.NewGlobalBuilder(max(trace.DefaultMaxWindow, 8*n+32))
	// Non-collective runs are buffered per class and re-merged across ranks
	// when the next collective closes the segment; this keeps the aligned
	// queue's point-to-point RSDs merged (rank-relative peers preserved)
	// instead of exploding into per-rank leaves. The merge only reads a
	// sequence several members name, so its leaves go back to the builder.
	seqs := make([][]trace.Node, n)
	flushSegments := func() {
		empty := true
		for r, c := range classOf {
			seqs[r] = classes[c].seg.Seq()
			empty = empty && len(seqs[r]) == 0
		}
		if empty {
			return
		}
		merged := trace.MergeRankSeqsOwned(n, t.Comms, seqs)
		for _, g := range merged.Groups {
			for _, node := range g.Seq {
				out.Append(node)
			}
		}
		for _, c := range classes {
			c.seg.Reset(c.size == 1)
		}
	}

	// The rendezvous is the paper's, rank by rank; only the walking is
	// shared. A class's cursor cannot pass a collective before every member
	// has arrived, so a rank is at the cursor or one stretch behind it
	// (walked[r] false): the first member visited walks and emits the
	// stretch, a later one has the same events behind it and nothing to emit.
	walked := make([]bool, n)
	done := func(r int) bool {
		c := classes[classOf[r]]
		return c.cur.Done() && (walked[r] || !c.progressed)
	}
	pending := make(map[int]*pendingColl)
	visitedSinceProgress := make(map[int]bool)
	active := 0

	for {
		c := classes[classOf[active]]
		if !walked[active] {
			walked[active] = true
			if !c.ran {
				c.ran = true
				for rsd := c.cur.Cur(); rsd != nil && !rsd.Op.IsCollective(); rsd = c.cur.Cur() {
					leaf := c.seg.NewLeaf()
					rsd.CopyFor(leaf, c.first, c.ranks, t, rsd.ComputeMeanAt(c.cur.InnermostIter() == 0))
					c.seg.Append(leaf)
					c.cur.Advance()
					c.progressed = true
				}
			}
			if c.progressed {
				clear(visitedSinceProgress)
			}
		}
		if c.cur.Done() {
			next := -1
			for r := 0; r < n; r++ {
				if !done(r) {
					next = r
					break
				}
			}
			if next == -1 {
				break // every rank fully traversed
			}
			if visitedSinceProgress[next] {
				return nil, fmt.Errorf("align: no progress possible; mismatched collectives in input trace")
			}
			visitedSinceProgress[next] = true
			active = next
			continue
		}

		// Collective: rendezvous on the communicator.
		rsd := c.cur.Cur()
		comm := t.CommGroup(rsd.CommID)
		if len(comm) == 0 {
			return nil, fmt.Errorf("align: rank %d references unknown comm %d", active, rsd.CommID)
		}
		pos, ok := t.CommRankOf(rsd.CommID, active)
		if !ok {
			return nil, fmt.Errorf("align: rank %d calls %v on comm %d without being a member",
				active, rsd.Op, rsd.CommID)
		}
		pc := pending[rsd.CommID]
		if pc == nil {
			pc = &pendingColl{arrived: make([]*trace.RSD, len(comm)), means: make([]float64, len(comm))}
			pending[rsd.CommID] = pc
		}
		if i := slices.IndexFunc(pc.arrived, func(r *trace.RSD) bool { return r != nil }); i >= 0 && pc.arrived[i].Op != rsd.Op {
			return nil, fmt.Errorf("align: collective mismatch on comm %d: %v vs %v",
				rsd.CommID, pc.arrived[i].Op, rsd.Op)
		}
		pc.arrived[pos] = rsd
		pc.means[pos] = rsd.ComputeMeanAt(c.cur.InnermostIter() == 0)

		missing := slices.Index(pc.arrived, nil)
		if missing < 0 {
			// Everyone arrived: close the current point-to-point segment,
			// emit the merged collective(s) and release the members, each
			// class's cursor once.
			flushSegments()
			emitCollective(t, out, pc, comm)
			delete(pending, rsd.CommID)
			for _, member := range comm {
				if mc := classes[classOf[member]]; mc.ran {
					mc.cur.Advance()
					mc.ran, mc.progressed = false, false
				}
				walked[member] = false
			}
			active = comm[0]
			clear(visitedSinceProgress)
			continue
		}
		// Switch traversal to the next member that has not arrived.
		next := comm[missing]
		if visitedSinceProgress[next] {
			return nil, fmt.Errorf("align: no progress possible; rank %d blocked on %v over comm %d",
				next, rsd.Op, rsd.CommID)
		}
		visitedSinceProgress[next] = true
		active = next
	}

	if len(pending) != 0 {
		return nil, fmt.Errorf("align: %d collectives left incomplete", len(pending))
	}
	flushSegments()

	return &trace.Trace{
		N:      n,
		Comms:  trace.CloneComms(t.Comms),
		Groups: []trace.Group{{Ranks: taskset.Range(0, n-1), Seq: out.Seq()}},
	}, nil
}

// emitCollective appends the merged collective RSD(s). CommSplit/CommDup
// emit one leaf per created communicator (partitioned by NewCommID) so the
// new groups' memberships survive; all other collectives emit a single leaf
// covering the whole communicator.
func emitCollective(t *trace.Trace, out *trace.Builder, pc *pendingColl, comm []int) {
	ctrRounds.Inc()
	// Every member has arrived. The sum runs in communicator order: addition
	// of floats does not commute in the last bit.
	sample := 0.0
	for _, m := range pc.means {
		sample += m
	}
	sample /= float64(len(comm))
	first := pc.arrived[0]
	if first.Op == mpi.OpCommSplit || first.Op == mpi.OpCommDup {
		// Partition arrivals by the communicator they created.
		seen := map[int]bool{}
		for i, m := range comm {
			r := pc.arrived[i]
			if seen[r.NewCommID] {
				continue
			}
			seen[r.NewCommID] = true
			members := taskset.Empty
			for i2, m2 := range comm {
				if pc.arrived[i2].NewCommID == r.NewCommID {
					members = members.Add(m2)
				}
			}
			leaf := new(trace.RSD)
			r.CopyFor(leaf, m, members, t, sample)
			out.Append(leaf)
		}
		return
	}
	// The leaf carries one pooled compute-time sample (the members' mean):
	// replayed timing stays identical on average without multiplying histogram
	// populations through re-compression.
	leaf := new(trace.RSD)
	first.CopyFor(leaf, comm[0], taskset.Of(comm...), t, sample)
	// When per-rank contributions differ (Gatherv/Allgatherv-style), record
	// the average size plus the per-member contribution vector, matching
	// Table 1's "REDUCE with averaged message size" substitution downstream.
	uniform := true
	totalSize := 0
	perMember := make([]int, 0, len(comm))
	for _, r := range pc.arrived {
		perMember = append(perMember, r.Size)
		totalSize += r.Size
		if r.Size != first.Size {
			uniform = false
		}
	}
	if !uniform {
		leaf.Size = totalSize / len(comm)
		leaf.Counts = perMember
	}
	out.Append(leaf)
}
