package trace

import (
	"sort"

	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// This file implements the parallel inter-node merge. The sequential
// reference (mergeRankSeqsLegacy, below) folds rank 0..n-1 into behaviour
// groups one at a time: for each rank it scans the existing groups in
// creation order and joins the first one whose sequence unifies, so the cost
// grows as O(ranks * groups * trace length) and the whole stage runs on one
// goroutine. The parallel path produces bit-identical output in three
// deterministic phases, mirroring ScalaTrace's radix-tree inter-node
// reduction:
//
//  1. Finalize (parallel over ranks): warm every node hash and compute a
//     merge signature per rank — a structural hash of exactly the fields
//     that group unification compares. Unifiable sequences always have
//     equal signatures.
//  2. Classify (binomial tree): contiguous rank ranges are classified
//     locally into partial class lists, then pairs of partial lists are
//     combined round by round. Group membership under unification is an
//     equivalence relation (peer parameters never block a merge — they
//     degrade to an explicit vector — so only structural fields and the
//     peer class decide membership), which makes the tree reduction exact:
//     it yields the same classes, in the same representative order, as the
//     sequential first-fit scan.
//  3. Fold (parallel over leaf positions): for every class, each leaf
//     position of the representative's sequence is folded independently
//     across the members in ascending rank order — the exact per-member
//     unification and histogram-pool order of the sequential fold, so
//     peers, rank sets and (order-sensitive) floating-point histogram sums
//     come out bit-identical regardless of the worker count.
type mergeClass struct {
	sig uint64
	// members holds the class's world ranks in ascending order;
	// members[0] is the representative whose sequence seeds the group.
	members []int
}

// MergeRankSeqs performs ScalaTrace's inter-node merge: per-rank compressed
// sequences are unified into behaviour groups with generalized (possibly
// rank-relative) parameters. It is used by the Collector at trace time and
// by the wildcard-resolution pass to rebuild a merged trace.
//
// The group representatives are deep-cloned, so the caller keeps ownership
// of seqs (merging still pools compute histograms out of the non-
// representative leaves). Callers that discard seqs afterwards should use
// MergeRankSeqsOwned and skip the clone.
func MergeRankSeqs(n int, comms map[int][]int, seqs [][]Node) *Trace {
	return mergeRankSeqs(n, comms, seqs, false)
}

// MergeRankSeqsOwned is MergeRankSeqs for callers that hand over ownership
// of seqs: the per-rank sequences are consumed in place — group
// representatives alias them and unification mutates them — and must not be
// read or appended to afterwards.
func MergeRankSeqsOwned(n int, comms map[int][]int, seqs [][]Node) *Trace {
	return mergeRankSeqs(n, comms, seqs, true)
}

func mergeRankSeqs(n int, comms map[int][]int, seqs [][]Node, owned bool) *Trace {
	defer telemetry.Region("trace.merge")()
	tr := &Trace{N: n, Comms: comms}
	if n <= 0 {
		return tr
	}
	idx := newCommIndex(tr)

	// Phase 1: per-rank finalize.
	sigs := make([]uint64, n)
	parallelFor(n, func(r int) {
		warmHashes(seqs[r])
		sigs[r] = mergeSignature(seqs[r])
	})

	// Phase 2: classification tree.
	classes := classifyRanks(seqs, sigs)

	// Phase 3: seed one group per class from its representative.
	tr.Groups = make([]Group, len(classes))
	parallelFor(len(classes), func(ci int) {
		c := classes[ci]
		gseq := seqs[c.members[0]]
		if !owned {
			gseq = cloneSeq(gseq)
		}
		tr.Groups[ci] = Group{Ranks: taskset.Of(c.members...), Seq: gseq}
	})

	// Phase 4: fold the remaining members into their groups, sharded by
	// leaf position.
	type foldState struct {
		c        *mergeClass
		groupSeq []Node
		gflat    []*RSD   // group-sequence leaves in traversal order
		mflat    [][]*RSD // per member k >= 1, that member's leaves
	}
	var states []*foldState
	type flatTask struct {
		st *foldState
		k  int // 0 = group sequence, >= 1 = member index
	}
	var tasks []flatTask
	var memberFolds int64
	for ci, c := range classes {
		memberFolds += int64(len(c.members) - 1)
		if len(c.members) == 1 {
			continue
		}
		st := &foldState{c: c, groupSeq: tr.Groups[ci].Seq, mflat: make([][]*RSD, len(c.members))}
		states = append(states, st)
		tasks = append(tasks, flatTask{st: st, k: 0})
		for k := 1; k < len(c.members); k++ {
			tasks = append(tasks, flatTask{st: st, k: k})
		}
	}
	ctrRSDMerges.Add(memberFolds)
	parallelFor(len(tasks), func(ti int) {
		t := tasks[ti]
		if t.k == 0 {
			// The group sequence aliases (owned) or clones the
			// representative; flatten it, not the input sequence.
			t.st.gflat = flattenRSDs(t.st.groupSeq, nil)
			return
		}
		t.st.mflat[t.k] = flattenRSDs(seqs[t.st.c.members[t.k]], nil)
	})

	// Leaf-position job table across all multi-member classes.
	offsets := make([]int, len(states)+1)
	for i, st := range states {
		offsets[i+1] = offsets[i] + len(st.gflat)
	}
	total := offsets[len(states)]
	parallelFor(total, func(j int) {
		si := sort.SearchInts(offsets, j+1) - 1
		st := states[si]
		p := j - offsets[si]
		g := st.gflat[p]
		for k := 1; k < len(st.c.members); k++ {
			rank := st.c.members[k]
			rx := st.mflat[k][p]
			if par, vec, ok := unifyPeerMembers(g, rx, st.c.members[:k], rank, idx); ok {
				g.Peer = par
				g.PeerVec = vec
			}
			g.mergeComputeFrom(rx)
			g.Ranks = g.Ranks.Add(rank)
		}
		g.hashSet = false
	})

	if owned {
		// Cloned representatives start with unset loop hashes; owned ones
		// carry caches from collection that unification just invalidated.
		parallelFor(len(states), func(si int) {
			invalidateLoopHashes(states[si].groupSeq)
		})
	}

	sort.Slice(tr.Groups, func(i, j int) bool {
		return tr.Groups[i].Ranks.Min() < tr.Groups[j].Ranks.Min()
	})
	return tr
}

// classifyRanks partitions the ranks into unification classes with a
// deterministic binomial-tree reduction: contiguous rank ranges are
// classified independently in parallel, then pairs of partial class lists
// are combined round by round. Classes stay ordered by ascending
// representative rank throughout, which reproduces the sequential fold's
// first-fit group order exactly.
func classifyRanks(seqs [][]Node, sigs []uint64) []*mergeClass {
	n := len(seqs)
	const leafSpan = 16
	chunks := (n + leafSpan - 1) / leafSpan
	if chunks == 0 {
		return nil
	}
	parts := make([][]*mergeClass, chunks)
	parallelFor(chunks, func(ci int) {
		lo := ci * leafSpan
		hi := lo + leafSpan
		if hi > n {
			hi = n
		}
		parts[ci] = classifyRange(seqs, sigs, lo, hi)
	})
	for stride := 1; stride < chunks; stride *= 2 {
		var pairs []int
		for i := 0; i+stride < chunks; i += 2 * stride {
			pairs = append(pairs, i)
		}
		parallelFor(len(pairs), func(k int) {
			i := pairs[k]
			parts[i] = combineClasses(seqs, parts[i], parts[i+stride])
		})
	}
	return parts[0]
}

func classifyRange(seqs [][]Node, sigs []uint64, lo, hi int) []*mergeClass {
	var classes []*mergeClass
	bySig := make(map[uint64][]int)
	for r := lo; r < hi; r++ {
		placed := false
		for _, ci := range bySig[sigs[r]] {
			c := classes[ci]
			if mergeCompatible(seqs[c.members[0]], seqs[r]) {
				c.members = append(c.members, r)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, &mergeClass{sig: sigs[r], members: []int{r}})
			bySig[sigs[r]] = append(bySig[sigs[r]], len(classes)-1)
		}
	}
	return classes
}

// combineClasses merges the right partial class list into the left one. All
// right members are strictly greater than all left members (the tree
// combines adjacent rank ranges), so appending preserves ascending member
// and representative order.
func combineClasses(seqs [][]Node, left, right []*mergeClass) []*mergeClass {
	for _, rc := range right {
		placed := false
		for _, lc := range left {
			if lc.sig == rc.sig && mergeCompatible(seqs[lc.members[0]], seqs[rc.members[0]]) {
				lc.members = append(lc.members, rc.members...)
				placed = true
				break
			}
		}
		if !placed {
			left = append(left, rc)
		}
	}
	return left
}

// mergeSignature hashes exactly the fields that decide group membership
// during the inter-node merge: the structural identity compared by
// rsdUnifiable plus the peer class (peerless, wildcard or concrete — peer
// *values* never block a merge, they generalize or degrade to a vector).
// Unifiable sequences therefore always hash equal; collisions are resolved
// by mergeCompatible.
func mergeSignature(seq []Node) uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) { h = fnvMix(h, v) }
	var walk func(ns []Node)
	walk = func(ns []Node) {
		mix(uint64(len(ns)))
		for _, n := range ns {
			switch x := n.(type) {
			case *RSD:
				mix(1)
				mix(uint64(x.Op))
				mix(x.Site)
				mix(uint64(int64(x.CommID)))
				mix(uint64(int64(x.CommSize)))
				mix(uint64(boolInt(x.Wildcard)))
				mix(uint64(int64(x.Tag)))
				mix(uint64(int64(x.Size)))
				mix(uint64(int64(x.Root)))
				mix(uint64(int64(x.NewCommID)))
				mix(uint64(len(x.Counts)))
				for _, c := range x.Counts {
					mix(uint64(int64(c)))
				}
				mix(uint64(peerClass(x.Peer.Kind)))
			case *Loop:
				mix(2)
				mix(uint64(int64(x.Iters)))
				walk(x.Body)
			}
		}
	}
	walk(seq)
	return h
}

// peerClass buckets parameter kinds by how they unify: peerless and
// wildcard parameters only unify with their own kind, while every concrete
// kind unifies with every other (falling back to a per-rank vector).
func peerClass(k ParamKind) int {
	switch k {
	case ParamNone:
		return 0
	case ParamAny:
		return 1
	default:
		return 2
	}
}

// mergeCompatible reports whether two sequences unify into one behaviour
// group. It is the decision procedure behind seqUnifiable restricted to the
// order-independent fields, and is an equivalence relation — which is what
// lets classification run as a tree reduction.
func mergeCompatible(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case *RSD:
			y, ok := b[i].(*RSD)
			if !ok || !rsdCompatible(x, y) {
				return false
			}
		case *Loop:
			y, ok := b[i].(*Loop)
			if !ok || x.Iters != y.Iters || !mergeCompatible(x.Body, y.Body) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func rsdCompatible(x, y *RSD) bool {
	if x.Op != y.Op || x.Site != y.Site || x.CommID != y.CommID ||
		x.CommSize != y.CommSize || x.Wildcard != y.Wildcard ||
		x.Tag != y.Tag || x.Size != y.Size || x.Root != y.Root ||
		x.NewCommID != y.NewCommID || len(x.Counts) != len(y.Counts) {
		return false
	}
	for i := range x.Counts {
		if x.Counts[i] != y.Counts[i] {
			return false
		}
	}
	return peerClass(x.Peer.Kind) == peerClass(y.Peer.Kind)
}

// flattenRSDs appends the sequence's leaves to out in traversal order.
// Unification-compatible sequences flatten to equal-length leaf lists with
// corresponding positions, which is what lets the fold shard by position.
func flattenRSDs(seq []Node, out []*RSD) []*RSD {
	for _, n := range seq {
		switch x := n.(type) {
		case *RSD:
			out = append(out, x)
		case *Loop:
			out = flattenRSDs(x.Body, out)
		}
	}
	return out
}

// warmHashes computes and caches every node hash in the sequence.
func warmHashes(seq []Node) {
	for _, n := range seq {
		n.Hash()
	}
}

// invalidateLoopHashes drops cached loop hashes; leaf hashes stay (they are
// reset individually when unification rewrites a leaf's parameters).
func invalidateLoopHashes(seq []Node) {
	for _, n := range seq {
		if lp, ok := n.(*Loop); ok {
			lp.invalidate()
			invalidateLoopHashes(lp.Body)
		}
	}
}

// commIndex caches communicator-rank lookups for the duration of one merge.
// Trace.CommRankOf is a linear scan over the communicator group; peer
// unification performs it for every leaf and member, which the sequential
// fold repeated O(ranks) times per leaf.
type commIndex struct {
	m map[int]map[int]int
}

func newCommIndex(t *Trace) *commIndex {
	ci := &commIndex{m: make(map[int]map[int]int, len(t.Comms))}
	for id, g := range t.Comms {
		mm := make(map[int]int, len(g))
		for i, wr := range g {
			if _, dup := mm[wr]; !dup {
				mm[wr] = i
			}
		}
		ci.m[id] = mm
	}
	return ci
}

// CommRankOf implements PeerIndexer.
func (ci *commIndex) CommRankOf(commID, worldRank int) (int, bool) {
	r, ok := ci.m[commID][worldRank]
	if !ok {
		return -1, false
	}
	return r, true
}

// mergeRankSeqsLegacy is the original sequential fold, kept as the reference
// implementation: the trace tests assert that the parallel merge reproduces
// it bit-for-bit on every peer-pattern and loop shape.
func mergeRankSeqsLegacy(n int, comms map[int][]int, seqs [][]Node) *Trace {
	tr := &Trace{N: n, Comms: comms}
	for rank := 0; rank < n; rank++ {
		seq := seqs[rank]
		merged := false
		for gi := range tr.Groups {
			if tr.Groups[gi].tryMerge(seq, rank, tr) {
				merged = true
				break
			}
		}
		if !merged {
			tr.Groups = append(tr.Groups, Group{
				Ranks: taskset.Of(rank),
				Seq:   cloneSeq(seq),
			})
		}
	}
	sort.Slice(tr.Groups, func(i, j int) bool {
		return tr.Groups[i].Ranks.Min() < tr.Groups[j].Ranks.Min()
	})
	return tr
}

func cloneSeq(seq []Node) []Node {
	out := make([]Node, len(seq))
	for i, n := range seq {
		out[i] = n.clone()
	}
	return out
}
