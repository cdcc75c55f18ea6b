package trace

import (
	"sort"

	"repro/internal/taskset"
)

// mergeRankSeqsLegacy is the original first-fit fold of the inter-node merge,
// kept as the reference implementation: the trace tests assert that
// MergeClasses reproduces it bit-for-bit on every peer-pattern and loop
// shape. It rescans every group's whole sequence per rank: O(ranks * groups *
// trace length).
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

// tryMerge attempts to merge a single rank's sequence into the group,
// generalizing peer parameters where needed. On success the group is
// mutated and true is returned; on failure the group is unchanged.
func (g *Group) tryMerge(seq []Node, rank int, tr *Trace) bool {
	if !seqUnifiable(g.Seq, seq, g.Ranks, rank, tr) {
		return false
	}
	seqApplyMerge(g.Seq, seq, g.Ranks, rank, tr)
	g.Ranks = g.Ranks.Add(rank)
	return true
}

func seqUnifiable(gSeq, rSeq []Node, gRanks taskset.Set, rank int, tr *Trace) bool {
	if len(gSeq) != len(rSeq) {
		return false
	}
	for i := range gSeq {
		if !nodeUnifiable(gSeq[i], rSeq[i], gRanks, rank, tr) {
			return false
		}
	}
	return true
}

func nodeUnifiable(gn, rn Node, gRanks taskset.Set, rank int, tr *Trace) bool {
	switch gx := gn.(type) {
	case *Loop:
		rx, ok := rn.(*Loop)
		if !ok || gx.Iters != rx.Iters {
			return false
		}
		return seqUnifiable(gx.Body, rx.Body, gRanks, rank, tr)
	case *RSD:
		rx, ok := rn.(*RSD)
		if !ok {
			return false
		}
		return rsdUnifiable(gx, rx, gRanks, rank, tr)
	}
	return false
}

func rsdUnifiable(gx, rx *RSD, gRanks taskset.Set, rank int, tr *Trace) bool {
	if gx.Op != rx.Op || gx.Site != rx.Site || gx.CommID != rx.CommID ||
		gx.CommSize != rx.CommSize || gx.Wildcard != rx.Wildcard ||
		gx.Tag != rx.Tag || gx.Size != rx.Size || gx.Root != rx.Root ||
		gx.NewCommID != rx.NewCommID {
		return false
	}
	if len(gx.Counts) != len(rx.Counts) {
		return false
	}
	for i := range gx.Counts {
		if gx.Counts[i] != rx.Counts[i] {
			return false
		}
	}
	_, _, ok := unifyPeer(gx, rx, gRanks, rank, tr)
	return ok
}

// unifyPeer is unifyPeerMembers on a rank set.
func unifyPeer(gx, rx *RSD, gRanks taskset.Set, rank int, tr *Trace) (Param, []int, bool) {
	return unifyPeerMembers(gx, rx, rx.Peer, gRanks.Members(), rank, tr)
}

func seqApplyMerge(gSeq, rSeq []Node, gRanks taskset.Set, rank int, tr *Trace) {
	for i := range gSeq {
		switch gx := gSeq[i].(type) {
		case *Loop:
			rx := rSeq[i].(*Loop)
			seqApplyMerge(gx.Body, rx.Body, gRanks, rank, tr)
		case *RSD:
			rx := rSeq[i].(*RSD)
			if p, vec, ok := unifyPeer(gx, rx, gRanks, rank, tr); ok {
				gx.Peer = p
				gx.PeerVec = vec
			}
			gx.mergeComputeFrom(rx)
			gx.Ranks = gx.Ranks.Add(rank)
			gx.hashSet = false
		}
	}
}
