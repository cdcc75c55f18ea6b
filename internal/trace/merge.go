package trace

import (
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// This file implements ScalaTrace's inter-node merge as one sequential pass
// over classes of ranks, each naming one compressed sequence:
//
//  1. Classify, in class order: a merge signature — a structural hash of
//     exactly the fields group unification compares — buckets the classes,
//     and each class joins the first group of its bucket whose representative
//     it is compatible with, or founds a new one. Peer values never block a
//     merge (they generalize or degrade to an explicit vector), so
//     membership is an equivalence relation decided by structure alone, and
//     the groups come out in ascending-representative order.
//  2. Fold: each group's members, in ascending world-rank order across all
//     of its classes, are folded into the representative's sequence, walking
//     both in lockstep. Every leaf therefore sees its members in rank order —
//     the order peers, rank sets and the (order-sensitive) floating-point
//     histogram sums depend on.
//
// The collector and Pinned hand over a class per rank. Algorithm 1 hands over
// one per lockstep class: a sequence its first member built, which every
// member walked. It is hashed and compared once, and a member's own vector
// peers come from the class (Class.Peer), so the result is that of a private
// copy per member, bit for bit, with the members folded in the same order.
//
// Peer unification translates world ranks to communicator ranks once per leaf
// and member; it reads the merged trace's communicator index (commindex.go),
// which the merge builds and the trace keeps for every later CommRankOf.
//
// The output is bit-identical to mergeRankSeqsLegacy, the original fold the
// tests keep as their reference (merge_legacy_test.go), which rescans every
// group's whole sequence per rank: O(ranks * groups * trace length) against
// one hash of every leaf of every class's sequence plus one fold step per
// member per leaf here.

// A Class is a compressed sequence and the world ranks that name it. Its
// leaves carry the first member's rank set and peers. Peer, if not nil, gives
// a member's own peer, in the leaf's communicator, for a leaf built with the
// first member's vector peer, and reports false for every other leaf.
type Class struct {
	Seq     []Node
	Members []int // ascending
	Peer    func(leaf *RSD, rank int) (peer int, ok bool)
}

// MergeClasses performs ScalaTrace's inter-node merge: the classes' compressed
// sequences are unified into behaviour groups with generalized (possibly
// rank-relative) parameters. It is used by the Collector at trace time, by
// Pinned and by the alignment pass to rebuild a merged trace. Every rank of
// [0, n) is a member of exactly one class, and the classes are in ascending
// order of their first members.
//
// The caller hands over ownership of the sequence of every class of one
// member: the group representatives alias them and unification mutates them,
// so they must not be read or appended to afterwards. The sequence of a class
// of several members stays the caller's, unchanged, and no node of it is
// reachable from the result.
func MergeClasses(n int, comms map[int][]int, classes []Class) *Trace {
	defer telemetry.Region("trace.merge")()
	tr := &Trace{N: n, Comms: comms}
	if n <= 0 {
		return tr
	}
	// The merge owns comms, so it reads the index directly (no hit validation);
	// the same index then serves the merged trace's CommRankOf.
	idx := tr.index()

	// groupOf[ci] is the group of classes[ci]; groups[g] holds the class that
	// founded tr.Groups[g] and, once every class is placed, the group's world
	// ranks in ascending order. bySig lists the groups sharing a signature.
	type group struct {
		rep     int
		members []int
	}
	var groups []group
	groupOf := make([]int, len(classes))
	bySig := make(map[uint64][]int)
	for ci, c := range classes {
		sig := mergeSignature(c.Seq)
		g, placed := 0, false
		for _, g = range bySig[sig] {
			if placed = mergeCompatible(classes[groups[g].rep].Seq, c.Seq); placed {
				break
			}
		}
		if !placed {
			g = len(groups)
			bySig[sig] = append(bySig[sig], g)
			groups = append(groups, group{rep: ci})
		}
		groupOf[ci] = g
	}
	classOf := make([]int, n)
	for ci, c := range classes {
		for _, r := range c.Members {
			classOf[r] = ci
		}
	}
	for r, ci := range classOf {
		g := &groups[groupOf[ci]]
		g.members = append(g.members, r)
	}

	tr.Groups = make([]Group, len(groups))
	for g, grp := range groups {
		gseq, ms := classes[grp.rep].Seq, grp.members
		if len(classes[grp.rep].Members) > 1 {
			gseq = cloneSeq(gseq)
		}
		// ranks is the set of ms[:k], built once per member and shared by
		// every leaf that holds exactly those ranks.
		ranks := taskset.Of(ms[0])
		for k := 1; k < len(ms); k++ {
			c := &classes[classOf[ms[k]]]
			grown := ranks.Add(ms[k])
			foldMember(gseq, c.Seq, c.Peer, ms[:k], ms[k], ranks, grown, idx)
			ranks = grown
		}
		tr.Groups[g] = Group{Ranks: ranks, Seq: gseq}
	}
	ctrRSDMerges.Add(int64(n - len(groups)))
	return tr
}

// rankClasses gives every rank's sequence a class of its own: the merge's
// input from per-rank streams.
func rankClasses(seqs [][]Node) []Class {
	ranks := make([]int, len(seqs))
	classes := make([]Class, len(seqs))
	for r, seq := range seqs {
		ranks[r] = r
		classes[r] = Class{Seq: seq, Members: ranks[r : r+1 : r+1]}
	}
	return classes
}

// foldMember unifies rank's sequence into the group sequence leaf by leaf.
// rSeq is only read — it may be a sequence other ranks name too; peer is its
// class's Peer. gMembers holds the ranks already folded in, ascending, and
// prev their set; mergeCompatible has established that the two sequences
// have the same shape. A leaf whose rank set is packed exactly as prev takes
// grown, prev ∪ {rank}, which is what Add would have built; any other leaf
// adds the rank itself. Node hashes cached during collection go stale as
// leaves generalize, so they are dropped on the way.
func foldMember(gSeq, rSeq []Node, peer func(*RSD, int) (int, bool), gMembers []int, rank int, prev, grown taskset.Set, idx *commIndex) {
	for i := range gSeq {
		switch gx := gSeq[i].(type) {
		case *Loop:
			gx.invalidate()
			foldMember(gx.Body, rSeq[i].(*Loop).Body, peer, gMembers, rank, prev, grown, idx)
		case *RSD:
			rx := rSeq[i].(*RSD)
			rp := rx.Peer
			if peer != nil {
				if p, ok := peer(rx, rank); ok {
					rp = AbsParam(p)
				}
			}
			if par, vec, ok := unifyPeerMembers(gx, rx, rp, gMembers, rank, idx); ok {
				gx.Peer = par
				gx.PeerVec = vec
			}
			gx.mergeComputeFrom(rx)
			if gx.Ranks.Identical(prev) {
				gx.Ranks = grown
			} else {
				gx.Ranks = gx.Ranks.Add(rank)
			}
			gx.hashSet = false
		}
	}
}

// mergeSignature hashes exactly the fields that decide group membership
// during the inter-node merge: the structural identity rsdCompatible
// compares, peer class included (peerless, wildcard or concrete — peer
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
// group. It compares only order-independent fields (the legacy fold's
// seqUnifiable also tried the peers), and is an equivalence relation — which is what
// lets classification compare each rank with one representative per class.
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

func cloneSeq(seq []Node) []Node {
	out := make([]Node, len(seq))
	for i, n := range seq {
		out[i] = n.clone()
	}
	return out
}
