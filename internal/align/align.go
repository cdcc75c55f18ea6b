// Package align implements Algorithm 1 of the paper: combining per-node
// collective operations recorded at different call sites into single RSDs
// that name the complete participant set, so the benchmark generator can
// emit one statically-scoped collective statement (Figure 3's hoisting).
//
// The paper's algorithm walks the compressed trace with one traversal
// context (cursor) per rank that meet at collectives: trace.Lowered.Walk,
// which Algorithm 2 runs on too. Non-collective events are appended to the
// output queue, and a completed rendezvous emits one merged RSD. The output
// queue is recompressed on the fly, so the aligned trace remains scalable in
// length (the paper's guarantee 3).
//
// Here the unit of the walk is a class of ranks that walk the same events
// (lockstepClasses): one cursor and one re-compressed segment, handed to the
// merge once as the class's sequence, and one arrival at each collective for
// all its members. A class of one is the paper's per-node context. O(c*e)
// emission for c classes plus O(p*s) folding of compressed segments, where a
// context per rank is O(p*e); see DESIGN.md Section 10.
package align

import (
	"cmp"
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

// Align runs Algorithm 1 and returns a new trace in global-queue form: a
// single group covering all ranks whose sequence interleaves per-rank
// point-to-point runs with full-participant collective RSDs, preserving each
// rank's event order. It returns the walk's *trace.MismatchError or
// *trace.StuckError when the rendezvous cannot complete: the input
// application's collectives disagree.
func Align(t *trace.Trace) (*trace.Trace, error) {
	return alignWith(t, lockstepClasses, trace.NewStreamBuilder)
}

// lockstep is the traversal context of one class, a unit of the walk: one
// stream builder for the segment, the class's events since the last completed
// collective. Its leaves carry the first member's singleton set and peers: it
// is the sequence that member alone would have built.
type lockstep struct {
	members []int       // ascending
	ranks   taskset.Set // {first member}
	seg     *trace.Builder
	// src holds the input leaf of every leaf appended to seg, once a class of
	// several members has walked a vector-peer leaf. seg recycles leaves, so
	// every append overwrites its leaf's entry.
	src map[*trace.RSD]*trace.RSD
}

// peer is the merge's Class.Peer of a class with vector-peer leaves: member
// r's own peer for a leaf of seg copied from one. Two equal leaves of seg
// give every member equal peers, or lockstepClasses would have split the
// class, so a leaf a fold kept answers for the ones it absorbed.
func (c *lockstep) peer(t *trace.Trace) func(*trace.RSD, int) (int, bool) {
	if c.src == nil {
		return nil
	}
	return func(leaf *trace.RSD, r int) (int, bool) {
		if x := c.src[leaf]; x != nil && x.Peer.Kind == trace.ParamVec {
			return x.PeerFor(r, t), true
		}
		return 0, false
	}
}

// lockstepClasses returns each rank's class, numbered by first member. Two
// ranks share a class when they are in the same group and members of exactly
// the same leaves of its sequence (refined leaf by leaf, nothing is hashed):
// they emit the same leaves up to the rank set and the peer RSD.CopyFor
// resolves per rank for a vector-peer leaf. A segment builder decides its
// folds by node equality alone, so those peers change none of its decisions
// unless a vector-peer leaf and another leaf of the group are equal but for
// their peers: for each such pair, the members of both are refined by whether
// their two copies' peers are equal. The class's segments are then equal up
// to those peers if every collective has N members — it completes with every
// rank standing at it. Behind one of fewer, where a non-member stands depends
// on the order of the visits, and every rank is alone.
func lockstepClasses(t *trace.Trace, groupOf []int) []int {
	class := slices.Clone(groupOf)
	members := make([][]int, len(t.Groups))
	for r, gi := range groupOf {
		members[gi] = append(members[gi], r)
	}
	// refine moves the ranks of group gi that are in the set to a new class
	// per class they leave: to[c] is the class of c's members inside, while
	// stamp[c] names the split.
	next, split, alone := len(t.Groups), 0, false
	to, stamp := make([]int, next), make([]int, next)
	refine := func(gi int, in taskset.Set) {
		split++
		for _, r := range members[gi] {
			if !in.Contains(r) {
				continue
			}
			if c := class[r]; stamp[c] != split {
				stamp[c], to[c] = split, next
				next, to, stamp = next+1, append(to, 0), append(stamp, 0)
			}
			class[r] = to[class[r]]
		}
	}
	for gi, g := range t.Groups {
		trace.Leaves(g.Seq, func(x *trace.RSD) {
			alone = alone || x.Op.IsCollective() && len(t.CommGroup(x.CommID)) != t.N
			refine(gi, x.Ranks)
		})
		for _, p := range peerPairs(t, g.Seq) {
			var equal []int
			for _, r := range members[gi] {
				if p[0].Ranks.Contains(r) && p[1].Ranks.Contains(r) && copyPeer(t, p[0], r) == copyPeer(t, p[1], r) {
					equal = append(equal, r)
				}
			}
			refine(gi, taskset.Of(equal...))
		}
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

// peerPairs returns each vector-peer leaf of seq paired with every other leaf
// of seq that is equal to it but for the peer: the pairs whose copies a
// segment builder may find equal for some ranks and not for others.
func peerPairs(t *trace.Trace, seq []trace.Node) [][2]*trace.RSD {
	var vecs []*trace.RSD
	trace.Leaves(seq, func(x *trace.RSD) {
		if x.Peer.Kind == trace.ParamVec {
			vecs = append(vecs, x)
		}
	})
	if len(vecs) == 0 {
		return nil
	}
	var pairs [][2]*trace.RSD
	var a, b trace.RSD
	trace.Leaves(seq, func(y *trace.RSD) {
		for _, x := range vecs {
			if y == x || y.Op != x.Op || y.Site != x.Site {
				continue
			}
			x.CopyFor(&a, 0, taskset.Empty, t, 0)
			y.CopyFor(&b, 0, taskset.Empty, t, 0)
			a.Peer, b.Peer = trace.NoParam, trace.NoParam
			if trace.StructEqual(&a, &b) {
				pairs = append(pairs, [2]*trace.RSD{x, y})
			}
		}
	})
	return pairs
}

// copyPeer is the peer of rank's copy of x (RSD.CopyFor).
func copyPeer(t *trace.Trace, x *trace.RSD, rank int) trace.Param {
	if x.Peer.Kind == trace.ParamVec {
		return trace.AbsParam(x.PeerFor(rank, t))
	}
	return x.Peer
}

// alignWith is Align with the classifier and the segment builders'
// constructor as parameters: tests run the same pass one rank per class, or
// on builders that never recycle a leaf.
func alignWith(t *trace.Trace, classify func(*trace.Trace, []int) []int, newSegment func(window int) *trace.Builder) (*trace.Trace, error) {
	defer telemetry.Region("align.run")()
	n := t.N
	groupOf := make([]int, n) // the group that holds the rank
	for r := range groupOf {
		groupOf[r] = slices.IndexFunc(t.Groups, func(g trace.Group) bool { return g.Ranks.Contains(r) })
	}
	classOf := classify(t, groupOf)
	// byClass holds the ranks class by class, each class's in ascending order;
	// a class's members are its stretch.
	byClass := taskset.Range(0, n-1).Members()
	slices.SortFunc(byClass, func(a, b int) int { return cmp.Or(cmp.Compare(classOf[a], classOf[b]), a-b) })
	var units [][]int // each class's members
	for i, r := range byClass {
		c := classOf[r]
		if c == len(units) {
			units = append(units, byClass[i:i])
		}
		units[c] = units[c][:len(units[c])+1]
	}
	classes := make([]*lockstep, len(units))
	for i, m := range units {
		classes[i] = &lockstep{members: m, ranks: taskset.Of(m[0]), seg: newSegment(trace.DefaultMaxWindow)}
	}

	out := trace.NewGlobalBuilder(max(trace.DefaultMaxWindow, t.NodeCount()))
	// Non-collective runs are buffered per class and re-merged across ranks
	// when the next collective closes the segment; this keeps the aligned
	// queue's point-to-point RSDs merged (rank-relative peers preserved)
	// instead of exploding into per-rank leaves. Each class hands the merge
	// its segment once; the merge only reads the segment of a class of
	// several members, so its leaves go back to the builder.
	in := make([]trace.Class, len(classes))
	flushSegments := func() {
		empty := true
		for i, c := range classes {
			in[i] = trace.Class{Seq: c.seg.Seq(), Members: c.members, Peer: c.peer(t)}
			empty = empty && len(in[i].Seq) == 0
		}
		if empty {
			return
		}
		merged := trace.MergeClasses(n, t.Comms, in)
		for _, g := range merged.Groups {
			for _, node := range g.Seq {
				out.Append(node)
			}
		}
		for _, c := range classes {
			c.seg.Reset(len(c.members) == 1)
		}
	}

	// The rendezvous is the class's. A class of several members exists only
	// when every collective spans all N ranks (lockstepClasses' alone rule), so
	// its members stand at one collective. A release closes the current
	// point-to-point segment and emits the merged collective(s).
	err := trace.Lower(t).Walk(units, func(u int, cur *trace.Cursor) { classes[u].walk(t, cur) },
		func(r *trace.Rendezvous) {
			flushSegments()
			emitCollective(t, out, r)
		})
	if err != nil {
		return nil, err
	}
	flushSegments()
	for _, c := range classes {
		c.seg.Recycle()
	}

	return &trace.Trace{
		N:      n,
		Comms:  trace.CloneComms(t.Comms),
		Groups: []trace.Group{{Ranks: taskset.Range(0, n-1), Seq: out.Seq()}},
	}, nil
}

// walk appends the class's point-to-point events up to its next collective
// to its segment.
func (c *lockstep) walk(t *trace.Trace, cur *trace.Cursor) {
	for rsd := cur.Cur(); rsd != nil && !rsd.Op.IsCollective(); rsd = cur.Cur() {
		leaf := c.seg.NewLeaf()
		rsd.CopyFor(leaf, c.members[0], c.ranks, t, cur.ComputeUS())
		if c.src == nil && rsd.Peer.Kind == trace.ParamVec && len(c.members) > 1 {
			c.src = map[*trace.RSD]*trace.RSD{}
		}
		if c.src != nil {
			c.src[leaf] = rsd
		}
		c.seg.Append(leaf)
		cur.Advance()
	}
}

// emitCollective appends the merged collective RSD(s). CommSplit/CommDup
// emit one leaf per created communicator (partitioned by NewCommID) so the
// new groups' memberships survive; all other collectives emit a single leaf
// covering the whole communicator.
func emitCollective(t *trace.Trace, out *trace.Builder, r *trace.Rendezvous) {
	ctrRounds.Inc()
	comm := r.Comm
	// Every member has arrived. The sum runs in communicator order: addition
	// of floats does not commute in the last bit.
	sample := 0.0
	for _, m := range r.ComputeUS {
		sample += m
	}
	sample /= float64(len(comm))
	first := r.Arrived[0]
	if first.Op == mpi.OpCommSplit || first.Op == mpi.OpCommDup {
		// Partition arrivals by the communicator they created.
		seen := map[int]bool{}
		for i, m := range comm {
			x := r.Arrived[i]
			if seen[x.NewCommID] {
				continue
			}
			seen[x.NewCommID] = true
			members := taskset.Empty
			for i2, m2 := range comm {
				if r.Arrived[i2].NewCommID == x.NewCommID {
					members = members.Add(m2)
				}
			}
			leaf := new(trace.RSD)
			x.CopyFor(leaf, m, members, t, sample)
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
	if slices.ContainsFunc(r.Arrived, func(x *trace.RSD) bool { return x.Size != first.Size }) {
		leaf.Counts = make([]int, len(comm))
		total := 0
		for i, x := range r.Arrived {
			leaf.Counts[i], total = x.Size, total+x.Size
		}
		leaf.Size = total / len(comm)
	}
	out.Append(leaf)
}
