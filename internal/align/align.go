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
// Here the traversal context belongs to a class of ranks that walk the same
// events (lockstepClasses): one cursor and one re-compressed segment, handed
// to the merge once as the class's sequence. The class is also the unit of
// the rendezvous: it arrives at a collective once, for all its members, and
// a class of one is the paper's per-node context. O(c*e) emission for c
// classes plus O(p*s) folding of compressed segments, where a context per
// rank is O(p*e); see DESIGN.md Section 10.
package align

import (
	"cmp"
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
// collective. Its leaves carry the first member's singleton set and peers: it
// is the sequence that member alone would have built.
type lockstep struct {
	members []int       // ascending
	ranks   taskset.Set // {first member}
	cur     *trace.Cursor
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
	low := trace.Lower(t)
	// byClass holds the ranks class by class, each class's in ascending order;
	// a class's members are its stretch.
	byClass := make([]int, n)
	for r := range byClass {
		byClass[r] = r
	}
	slices.SortFunc(byClass, func(a, b int) int { return cmp.Or(cmp.Compare(classOf[a], classOf[b]), a-b) })
	var classes []*lockstep
	for i, r := range byClass {
		if classOf[r] == len(classes) {
			classes = append(classes, &lockstep{members: byClass[i:i], ranks: taskset.Of(r),
				cur: low.Cursor(r), seg: newSegment(trace.DefaultMaxWindow)})
		}
		c := classes[classOf[r]]
		c.members = c.members[:len(c.members)+1]
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
	// its members stand at one collective: the class arrives once, for all of
	// them. A class switched to twice with no progress in between is stuck:
	// seen[c] is the progress count at its last switch. Classes only ever
	// reach their end, so lowest, the lowest class short of it, only rises.
	pending := make(map[int]*pendingColl)
	seen := make([]int, len(classes))
	progress, lowest, active := 1, 0, 0
	walk := func(c *lockstep) {
		for rsd := c.cur.Cur(); rsd != nil && !rsd.Op.IsCollective(); rsd = c.cur.Cur() {
			leaf := c.seg.NewLeaf()
			rsd.CopyFor(leaf, c.members[0], c.ranks, t, c.cur.ComputeUS())
			if c.src == nil && rsd.Peer.Kind == trace.ParamVec && len(c.members) > 1 {
				c.src = map[*trace.RSD]*trace.RSD{}
			}
			if c.src != nil {
				c.src[leaf] = rsd
			}
			c.seg.Append(leaf)
			c.cur.Advance()
			progress++
		}
	}

	for {
		c := classes[active]
		walk(c)
		var next int
		if c.cur.Done() {
			for lowest < len(classes) && classes[lowest].cur.Done() {
				lowest++
			}
			if lowest == len(classes) {
				break // every class fully traversed
			}
			next = lowest
		} else {
			// Collective: the class arrives for every member.
			rsd := c.cur.Cur()
			comm := t.CommGroup(rsd.CommID)
			pc := pending[rsd.CommID]
			if pc == nil {
				pc = &pendingColl{arrived: make([]*trace.RSD, len(comm)), means: make([]float64, len(comm))}
				pending[rsd.CommID] = pc
			}
			if i := slices.IndexFunc(pc.arrived, func(r *trace.RSD) bool { return r != nil }); i >= 0 && pc.arrived[i].Op != rsd.Op {
				return nil, fmt.Errorf("align: collective mismatch on comm %d: %v vs %v",
					rsd.CommID, pc.arrived[i].Op, rsd.Op)
			}
			for _, m := range c.members {
				pos, _ := t.CommRankOf(rsd.CommID, m)
				pc.arrived[pos], pc.means[pos] = rsd, c.cur.ComputeUS()
			}
			missing := slices.Index(pc.arrived, nil)
			if missing < 0 {
				// Everyone arrived: close the current point-to-point segment,
				// emit the merged collective(s) and release the members, each
				// class once, through its first member.
				flushSegments()
				emitCollective(t, out, pc, comm)
				delete(pending, rsd.CommID)
				for _, m := range comm {
					if mc := classes[classOf[m]]; mc.members[0] == m {
						mc.cur.Advance()
					}
				}
				active = classOf[comm[0]]
				progress++
				continue
			}
			next = classOf[comm[missing]]
		}
		if seen[next] == progress {
			return nil, stuck(classes, walk)
		}
		seen[next] = progress
		active = next
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

// stuck is the error of a traversal that cannot progress. It names the
// lowest rank that stops short of its end, at the collective it walks to
// (classes are numbered by first member). Unlike the rank a revisit found,
// that does not depend on the order of the visits.
func stuck(classes []*lockstep, walk func(*lockstep)) error {
	c := classes[slices.IndexFunc(classes, func(c *lockstep) bool { walk(c); return !c.cur.Done() })]
	return fmt.Errorf("align: no progress possible; rank %d blocked on %v over comm %d",
		c.members[0], c.cur.Cur().Op, c.cur.Cur().CommID)
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
