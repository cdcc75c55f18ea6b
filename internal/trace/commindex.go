package trace

// commIndex is the one world-rank -> communicator-rank translation of the
// tree: the inter-node merge unifies peers through it, and Trace.CommRankOf
// (and so every PeerFor(rank, t) caller — replay, Algorithms 1 and 2, the
// generators, the MP-net lowering) answers from the one built on first use.
//
// A group that is the identity (g[i] == i: the world communicator, its dups
// and any [0..k) prefix — all point-to-point traffic of every kernel in the
// tree) has no table: its entry is the group's length and a lookup is a bounds
// check. Any other group keeps a world-rank -> first-position map. Memory is
// therefore O(sum of the non-identity groups' sizes) plus one entry per
// communicator, never communicators x world size.
type commIndex struct {
	groups map[int]commTable
}

// commTable is one communicator's translation: pos == nil means the identity
// on [0, n).
type commTable struct {
	n   int
	pos map[int]int
}

func newCommIndex(comms map[int][]int) *commIndex {
	ci := &commIndex{groups: make(map[int]commTable, len(comms))}
	for id, g := range comms {
		tb := commTable{n: len(g)}
		if !isIdentity(g) {
			tb.pos = make(map[int]int, len(g))
			for i, wr := range g {
				if _, dup := tb.pos[wr]; !dup {
					tb.pos[wr] = i
				}
			}
		}
		ci.groups[id] = tb
	}
	return ci
}

func isIdentity(g []int) bool {
	for i, wr := range g {
		if wr != i {
			return false
		}
	}
	return true
}

// CommRankOf implements PeerIndexer: the first position of worldRank in the
// communicator's group as it was when the index was built.
func (ci *commIndex) CommRankOf(commID, worldRank int) (int, bool) {
	tb, ok := ci.groups[commID]
	if !ok {
		return -1, false
	}
	if tb.pos == nil {
		if uint(worldRank) < uint(tb.n) {
			return worldRank, true
		}
		return -1, false
	}
	if i, ok := tb.pos[worldRank]; ok {
		return i, true
	}
	return -1, false
}
