package trace

import (
	"slices"

	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// This file implements ScalaTrace's inter-node merge as one sequential pass
// over the per-rank compressed sequences:
//
//  1. Classify, in rank order: a merge signature — a structural hash of
//     exactly the fields group unification compares — buckets the ranks,
//     and each rank joins the first class of its bucket whose representative
//     it is compatible with, or founds a new one. Peer values never block a
//     merge (they generalize or degrade to an explicit vector), so
//     membership is an equivalence relation decided by structure alone, and
//     the classes come out in ascending-representative order.
//  2. Fold: each class's members, in ascending rank order, are folded into
//     the representative's sequence, walking both in lockstep. Every leaf
//     therefore sees its members in rank order — the order peers, rank sets
//     and the (order-sensitive) floating-point histogram sums depend on.
//
// Several ranks may name the same sequence — the same slice in more than one
// slot of seqs; Algorithm 1 builds one per class of lockstep ranks. It is
// hashed and compared once, a rank naming a classified sequence joining that
// rank's class, and only ever read: a representative that shares its
// sequence is folded into a clone, and every member is still folded in, in
// ascending rank order, whichever sequence it names. The result is that of
// n private copies, bit for bit.
//
// Peer unification translates world ranks to communicator ranks once per leaf
// and member; it reads the merged trace's communicator index (commindex.go),
// which the merge builds and the trace keeps for every later CommRankOf.
//
// The output is bit-identical to mergeRankSeqsLegacy, the original fold the
// tests keep as their reference (merge_legacy_test.go), which rescans every
// group's whole sequence per rank: O(ranks * groups * trace length) against
// one hash of every leaf of every distinct sequence plus one fold step per
// member per leaf here.

// MergeRankSeqsOwned performs ScalaTrace's inter-node merge: per-rank
// compressed sequences are unified into behaviour groups with generalized
// (possibly rank-relative) parameters. It is used by the Collector at trace
// time, by Pinned and by the alignment pass to rebuild a merged trace.
//
// The caller hands over ownership of every sequence that only one rank
// names: the group representatives alias them and unification mutates them,
// so they must not be read or appended to afterwards. A sequence several
// ranks name stays the caller's, unchanged, and no node of it is reachable
// from the result.
func MergeRankSeqsOwned(n int, comms map[int][]int, seqs [][]Node) *Trace {
	defer telemetry.Region("trace.merge")()
	tr := &Trace{N: n, Comms: comms}
	if n <= 0 {
		return tr
	}
	// The merge owns comms, so it reads the index directly (no hit validation);
	// the same index then serves the merged trace's CommRankOf.
	idx := tr.index()

	// classes[i] holds the world ranks of tr.Groups[i] in ascending order;
	// bySig lists the classes sharing a signature, bySeq the class of every
	// sequence classified so far.
	var classes [][]int
	bySig := make(map[uint64][]int)
	bySeq := make(map[*Node]int, n)
	for rank := 0; rank < n; rank++ {
		ci, placed := bySeq[seqID(seqs[rank])]
		if !placed {
			sig := mergeSignature(seqs[rank])
			for _, ci = range bySig[sig] {
				if placed = mergeCompatible(seqs[classes[ci][0]], seqs[rank]); placed {
					break
				}
			}
			if !placed {
				ci = len(classes)
				bySig[sig] = append(bySig[sig], ci)
				classes = append(classes, nil)
			}
			bySeq[seqID(seqs[rank])] = ci
		}
		classes[ci] = append(classes[ci], rank)
	}

	tr.Groups = make([]Group, len(classes))
	for ci, members := range classes {
		gseq := seqs[members[0]]
		if slices.ContainsFunc(members[1:], func(m int) bool { return seqID(seqs[m]) == seqID(gseq) }) {
			gseq = cloneSeq(gseq)
		}
		// ranks is the set of members[:k], built once per member and shared
		// by every leaf that holds exactly those ranks.
		ranks := taskset.Of(members[0])
		for k := 1; k < len(members); k++ {
			grown := ranks.Add(members[k])
			foldMember(gseq, seqs[members[k]], members[:k], members[k], ranks, grown, idx)
			ranks = grown
		}
		tr.Groups[ci] = Group{Ranks: ranks, Seq: gseq}
	}
	ctrRSDMerges.Add(int64(n - len(classes)))
	return tr
}

// seqID identifies a sequence by where it starts: two slots of seqs that hold
// the same slice name the same sequence. Empty ones are all the same.
func seqID(seq []Node) *Node {
	if len(seq) == 0 {
		return nil
	}
	return &seq[0]
}

// foldMember unifies rank's sequence into the group sequence leaf by leaf.
// rSeq is only read — it may be a sequence other ranks name too.
// gMembers holds the ranks already folded in, ascending, and prev their set;
// mergeCompatible has established that the two sequences have the same shape.
// A leaf whose rank set is packed exactly as prev takes grown, prev ∪ {rank},
// which is what Add would have built; any other leaf adds the rank itself.
// Node hashes cached during collection go stale as leaves generalize, so they
// are dropped on the way.
func foldMember(gSeq, rSeq []Node, gMembers []int, rank int, prev, grown taskset.Set, idx *commIndex) {
	for i := range gSeq {
		switch gx := gSeq[i].(type) {
		case *Loop:
			gx.invalidate()
			foldMember(gx.Body, rSeq[i].(*Loop).Body, gMembers, rank, prev, grown, idx)
		case *RSD:
			rx := rSeq[i].(*RSD)
			if par, vec, ok := unifyPeerMembers(gx, rx, gMembers, rank, idx); ok {
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
