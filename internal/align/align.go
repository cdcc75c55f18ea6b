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
// context belongs to a lockstep class (lockstepClasses): ranks of one
// behaviour group that are members of exactly the same leaves walk the same
// events, so one cursor walks them and one stream builder re-compresses
// them, once, and every member names that one sequence when the segment is
// merged back across ranks (trace.MergeRankSeqsOwned reads a shared sequence
// and folds each member in, in rank order). The pass costs O(c*e) emission
// for c classes and e events per rank plus O(p*s) folding over the s nodes
// of the compressed segments, where one context per rank costs O(p*e). A
// class is a single rank — and the pass exactly the paper's — for ranks with
// a vector-peer leaf, and for every rank of a trace with a collective on a
// sub-communicator.
package align

import (
	"fmt"

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
		walkNodes(g.Seq, func(r *trace.RSD) {
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

func walkNodes(seq []trace.Node, f func(*trace.RSD)) {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.RSD:
			f(x)
		case *trace.Loop:
			walkNodes(x.Body, f)
		}
	}
}

// pendingColl tracks one in-progress collective rendezvous on a
// communicator. Both slices are indexed by communicator position, so
// everything derived from them — the pooled compute sample above all, a
// floating-point sum — is taken in communicator order, not in the order the
// traversal happened to reach the members.
type pendingColl struct {
	arrived []*trace.RSD // a member's RSD, nil until it arrives
	means   []float64    // its per-instance compute mean
	n       int          // members arrived
}

// Align runs Algorithm 1 and returns a new trace in global-queue form: a
// single group covering all ranks whose sequence interleaves per-rank
// point-to-point runs with full-participant collective RSDs, preserving each
// rank's event order. It returns an error when the rendezvous cannot
// complete, which indicates mismatched collectives in the input application.
func Align(t *trace.Trace) (*trace.Trace, error) {
	return alignWith(t, lockstepClasses, trace.NewStreamBuilder)
}

// lockstep is the traversal context of one class of ranks that walk the
// trace in lockstep: one cursor, and one stream builder for the segment —
// the class's events since the last collective any communicator completed.
// The builder is reset at every such cut and its leaves carry the first
// member's singleton set, so its sequence is what that member alone would
// have built and, up to that set, what every other member would have.
type lockstep struct {
	first, size int
	ranks       taskset.Set // {first}
	cur         *trace.Cursor
	seg         *trace.Builder
	// ran: a member has walked the stretch from the class's last collective
	// to cur, emitting it; progressed: the stretch holds an event.
	ran, progressed bool
}

// groupsOf returns, per rank, the index of the first group that holds it.
func groupsOf(t *trace.Trace) ([]int, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("align: trace of %d ranks", t.N)
	}
	groupOf := make([]int, t.N)
	for r := range groupOf {
		groupOf[r] = -1
		for gi := range t.Groups {
			if t.Groups[gi].Ranks.Contains(r) {
				groupOf[r] = gi
				break
			}
		}
		if groupOf[r] < 0 {
			return nil, fmt.Errorf("align: rank %d missing from trace", r)
		}
	}
	return groupOf, nil
}

// lockstepClasses partitions the ranks into the classes Algorithm 1 may walk
// as one, returning each rank's class, classes numbered by their first
// member. Two ranks share a class when they are in the same group, are
// members of exactly the same leaves of its sequence — the partition is
// refined leaf by leaf, nothing is hashed — and are members of no leaf with
// a vector peer: they then visit the same RSDs in the same loop iterations,
// and every leaf emitted for one is, up to its rank set, the leaf emitted
// for the other. (A vector peer is the one field emitLeaf resolves per
// rank.)
//
// That makes their event streams equal, not yet their segments: a segment
// ends wherever its rank stands when some collective completes. If every
// collective spans all N ranks, every rank stands at that collective; if one
// does not, where a non-member stands depends on the order the rendezvous
// visited the ranks in, and every class is a single rank.
func lockstepClasses(t *trace.Trace, groupOf []int) []int {
	class := append([]int(nil), groupOf...)
	next := len(t.Groups)
	members := make([][]int, len(t.Groups))
	for r, gi := range groupOf {
		members[gi] = append(members[gi], r)
	}
	spansWorld := map[int]bool{} // per communicator
	allSpan := true
	moved := map[int]int{} // a class -> the class of its members inside the leaf
	for gi := range t.Groups {
		walkNodes(t.Groups[gi].Seq, func(x *trace.RSD) {
			if x.Op.IsCollective() {
				spans, ok := spansWorld[x.CommID]
				if !ok {
					spans = isPermutation(t.CommGroup(x.CommID), t.N)
					spansWorld[x.CommID] = spans
				}
				allSpan = allSpan && spans
			}
			vec := x.Peer.Kind == trace.ParamVec
			inside := 0
			for _, r := range members[gi] {
				if x.Ranks.Contains(r) {
					inside++
				}
			}
			if inside == 0 || inside == len(members[gi]) && !vec {
				return // splits no class
			}
			clear(moved)
			for _, r := range members[gi] {
				if !x.Ranks.Contains(r) {
					continue
				}
				to, ok := moved[class[r]]
				if !ok || vec {
					to = next
					next++
					moved[class[r]] = to
				}
				class[r] = to
			}
		})
	}
	if !allSpan {
		return singletonClasses(t, groupOf)
	}
	// Number the classes by first member.
	clear(moved)
	for r, c := range class {
		to, ok := moved[c]
		if !ok {
			to = len(moved)
			moved[c] = to
		}
		class[r] = to
	}
	return class
}

// singletonClasses is the partition into single ranks: the traversal of the
// paper's Algorithm 1, one context per node.
func singletonClasses(t *trace.Trace, _ []int) []int {
	class := make([]int, t.N)
	for r := range class {
		class[r] = r
	}
	return class
}

// isPermutation reports whether comm lists each of the n world ranks once.
func isPermutation(comm []int, n int) bool {
	if len(comm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, r := range comm {
		if r < 0 || r >= n || seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// alignWith is Align with the partition into lockstep classes and the
// constructor of the segment builders as parameters, so a test can run the
// same pass one rank per class, or on builders that never recycle a leaf.
func alignWith(t *trace.Trace, classify func(*trace.Trace, []int) []int, newSegment func(window int) *trace.Builder) (*trace.Trace, error) {
	defer telemetry.Region("align.run")()
	n := t.N
	groupOf, err := groupsOf(t)
	if err != nil {
		return nil, err
	}
	classOf := classify(t, groupOf)
	var classes []*lockstep
	for r, c := range classOf {
		if c == len(classes) {
			classes = append(classes, &lockstep{
				first: r,
				ranks: taskset.Of(r),
				cur:   trace.NewCursor(t.Groups[groupOf[r]].Seq, r),
				seg:   newSegment(trace.DefaultWindow()),
			})
		}
		classes[c].size++
	}

	window := trace.DefaultWindow()
	if w := 8*n + 32; w > window {
		window = w
	}
	out := trace.NewGlobalBuilder(window)
	// Non-collective runs are buffered per class and re-merged across ranks
	// when the next collective closes the segment; this keeps the aligned
	// queue's point-to-point RSDs merged (rank-relative peers preserved)
	// instead of exploding into per-rank leaves. Every member of a class
	// names the class's one sequence, which the merge then only reads — it
	// still folds the members in one by one, in rank order across classes —
	// so the leaves come back to the class's builder; a class of one hands
	// its sequence over.
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

	// The rendezvous is the paper's, rank by rank: which rank is visited
	// next, which arrivals a collective waits for and when the traversal is
	// stuck are decided per rank. Only the walking is shared. Between two
	// collectives of its class a rank is either at the class's cursor or one
	// stretch behind it, at the event after the last collective (walked[r]
	// false): the cursor cannot pass a collective before every member has
	// arrived there. The first member visited walks the stretch and emits
	// it; a later one has the same events to walk and nothing to emit.
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
					emitLeaf(leaf, t, rsd, c.first, c.ranks, rsd.ComputeMeanAt(c.cur.InnermostIter() == 0))
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
		if first := firstArrival(pc); first != nil && first.Op != rsd.Op {
			return nil, fmt.Errorf("align: collective mismatch on comm %d: %v vs %v",
				rsd.CommID, first.Op, rsd.Op)
		}
		if pc.arrived[pos] == nil {
			pc.n++
		}
		pc.arrived[pos] = rsd
		pc.means[pos] = rsd.ComputeMeanAt(c.cur.InnermostIter() == 0)

		if pc.n == len(comm) {
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
		next := -1
		for i, member := range comm {
			if pc.arrived[i] == nil {
				next = member
				break
			}
		}
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

	all := taskset.Range(0, n-1)
	aligned := &trace.Trace{
		N:      n,
		Comms:  copyComms(t.Comms),
		Groups: []trace.Group{{Ranks: all, Seq: out.Seq()}},
	}
	return aligned, nil
}

// firstArrival returns the RSD of the first member, in communicator order,
// that has arrived, or nil.
func firstArrival(pc *pendingColl) *trace.RSD {
	for _, r := range pc.arrived {
		if r != nil {
			return r
		}
	}
	return nil
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
			emitLeaf(leaf, t, r, m, members, sample)
			out.Append(leaf)
		}
		return
	}
	leaf := new(trace.RSD)
	emitLeaf(leaf, t, first, comm[0], taskset.Of(comm...), sample)
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

// emitLeaf overwrites dst with a copy of src for the given participant(s)
// and a single pooled compute-time sample (the source's mean). Using the mean
// keeps the aligned trace's replayed timing identical on average while
// avoiding multiplying histogram populations through re-compression.
// Irregular (vector) peers are resolved to the participant's concrete peer;
// the segment re-merge regeneralizes them.
func emitLeaf(dst *trace.RSD, t *trace.Trace, src *trace.RSD, rank int, ranks taskset.Set, computeMean float64) {
	peer := src.Peer
	if peer.Kind == trace.ParamVec {
		peer = trace.AbsParam(src.PeerFor(rank, t))
	}
	*dst = trace.RSD{
		Op:        src.Op,
		Site:      src.Site,
		Ranks:     ranks,
		CommID:    src.CommID,
		CommSize:  src.CommSize,
		Peer:      peer,
		Wildcard:  src.Wildcard,
		Tag:       src.Tag,
		Size:      src.Size,
		Counts:    append([]int(nil), src.Counts...),
		Root:      src.Root,
		Group:     append([]int(nil), src.Group...),
		NewCommID: src.NewCommID,
	}
	dst.SetComputeSample(computeMean)
}

func copyComms(in map[int][]int) map[int][]int {
	out := make(map[int][]int, len(in))
	for id, g := range in {
		out[id] = append([]int(nil), g...)
	}
	return out
}
