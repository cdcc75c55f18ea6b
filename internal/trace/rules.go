package trace

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// rules are the static rules a trace meets before any consumer walks it.
// Every producer in the tree writes traces that meet them, Decode refuses an
// upload that breaks one by its text, and no consumer — Algorithms 1 and 2,
// replay, the MP-net lowering, the generators — has a rule of its own.
var rules = [...]string{
	1: "the groups partition the world",
	2: "comm 0 is the world",
	3: "a leaf names only ranks of its group",
	4: "a leaf's ranks are members of its listed communicator",
	5: "a point-to-point peer is a world rank, or any on a receive",
}

// rootedOps are the collectives whose leaves carry a root (rule 4).
var rootedOps = []mpi.Op{mpi.OpBcast, mpi.OpReduce, mpi.OpGather, mpi.OpGatherv, mpi.OpScatter, mpi.OpScatterv}

func broken(rule int, format string, args ...any) error {
	return fmt.Errorf("trace: rule %d, %s: %s", rule, rules[rule], fmt.Sprintf(format, args...))
}

// ruleCheck is the state of one check of a trace against the rules.
type ruleCheck struct {
	t *Trace
	// identity records per communicator whether its rank i is world rank
	// i, filled on first use.
	identity map[int]bool
	// size is the document's length in bytes. walks is the number of
	// ranks the per-rank walks may still check: one per byte in all. Only
	// a leaf whose rank set cannot settle it is walked (an XOR peer on a
	// communicator that is not an identity of the world, a run whose
	// stride hides its bound, or a leaf that breaks a rule); without the
	// bound, a 90-byte leaf could name a million ranks to walk. A walked
	// rank costs a communicator lookup, a few times what parsing a byte
	// does.
	size, walks int
}

// checkRules checks t, whose communicators' rank sets are members, decoded
// from a document of size bytes, against the rules without walking a
// group's ranks per leaf: rule 1 reads each group's members once, and a
// leaf's ranks are checked as a set (allRanksPass) wherever the answer does
// not depend on the rank. A leaf that test cannot settle is walked over its
// own ranks, within one rank per byte of the document in all.
func checkRules(t *Trace, members map[int]taskset.Set, size int) error {
	if world, ok := t.Comms[0]; !ok || len(world) != t.N || !isIdentity(world) {
		return broken(2, "comm 0 is %v, want 0…%d in order", world, t.N-1)
	}
	c := &ruleCheck{t: t, size: size, walks: size}
	in := make([]bool, t.N)
	for _, g := range t.Groups {
		for _, r := range g.Ranks.Members() {
			if in[r] {
				return broken(1, "rank %d is in two groups", r)
			}
			in[r] = true
		}
		var err error
		Leaves(g.Seq, func(x *RSD) {
			if err == nil {
				err = c.leaf(g.Ranks, members[x.CommID], x)
			}
		})
		if err != nil {
			return fmt.Errorf("%w (group %s)", err, g.Ranks)
		}
	}
	if r := slices.Index(in, false); r >= 0 {
		return broken(1, "rank %d is in no group", r)
	}
	return nil
}

// leaf checks one leaf of the group of the given ranks; members is the set
// of its communicator's ranks.
func (c *ruleCheck) leaf(group, members taskset.Set, x *RSD) error {
	t := c.t
	comm, listed := t.Comms[x.CommID]
	n := len(comm)
	switch {
	case !listed:
		return broken(4, "%v at site %d names comm %d, which the trace does not list", x.Op, x.Site, x.CommID)
	case n == 0:
		return broken(4, "%v at site %d names comm %d, which has no members", x.Op, x.Site, x.CommID)
	case x.CommSize != n:
		return broken(4, "%v at site %d has csize %d, comm %d has %d members", x.Op, x.Site, x.CommSize, x.CommID, n)
	case slices.Contains(rootedOps, x.Op) && uint(x.Root) >= uint(n):
		return broken(4, "%v at site %d has root %d, not a rank of comm %d", x.Op, x.Site, x.Root, x.CommID)
	case !group.ContainsAll(x.Ranks):
		return broken(3, "%v at site %d names ranks %s", x.Op, x.Site, x.Ranks)
	case c.allRanksPass(x, n, members):
		return nil
	}
	if c.walks -= x.Ranks.Size(); c.walks < 0 {
		return fmt.Errorf("trace: the rules would check more than %d ranks one by one, one per byte of the document; "+
			"refused at %v at site %d (ranks %s, comm %d)", c.size, x.Op, x.Site, x.Ranks, x.CommID)
	}
	for i, r := range x.Ranks.Members() {
		me, ok := t.CommRankOf(x.CommID, r)
		if !ok {
			return broken(4, "%v at site %d: rank %d is not a member of comm %d", x.Op, x.Site, r, x.CommID)
		}
		peer := x.Peer.Resolve(me, n)
		if x.Peer.Kind == ParamVec && i < len(x.PeerVec) {
			peer = x.PeerVec[i]
		}
		if x.Op.IsPointToPoint() && !validPeer(x, n, peer) {
			return broken(5, "%v at site %d: rank %d's peer %v is not a rank of comm %d", x.Op, x.Site, r, x.Peer, x.CommID)
		}
	}
	return nil
}

// isIdentity reports whether the communicator's rank i is world rank i.
func (c *ruleCheck) isIdentity(id int) bool {
	is, ok := c.identity[id]
	if !ok {
		if c.identity == nil {
			c.identity = make(map[int]bool)
		}
		is = isIdentity(c.t.Comms[id])
		c.identity[id] = is
	}
	return is
}

// allRanksPass reports whether rules 4 and 5 hold for every rank of x, on a
// communicator of n ranks whose set is members, from x's rank set as a
// whole: membership is set inclusion, a peer that does not depend on the
// rank is checked once, a vector peer per entry, and an XOR peer stays
// below n when it does for every rank below n or, on a communicator whose
// rank i is world rank i, for every rank of x, bounded over x's runs. False
// means the ranks must be checked one by one.
func (c *ruleCheck) allRanksPass(x *RSD, n int, members taskset.Set) bool {
	size := x.Ranks.Size()
	switch v := x.Peer.Value; {
	case !members.ContainsAll(x.Ranks):
		return false
	case !x.Op.IsPointToPoint() || x.Peer.Kind == ParamRel:
		return true
	case x.Peer.Kind == ParamXor:
		return v >= 0 && (taskset.MaxXor(0, n-1, v) < n || c.isIdentity(x.CommID) && x.Ranks.XorBound(v) < n)
	case x.Peer.Kind == ParamVec:
		return len(x.PeerVec) >= size && !slices.ContainsFunc(x.PeerVec[:size], func(p int) bool { return !validPeer(x, n, p) })
	}
	return size == 0 || validPeer(x, n, x.Peer.Resolve(0, n))
}

// validPeer is rule 5 for one resolved peer of a point-to-point leaf on a
// communicator of n ranks.
func validPeer(x *RSD, n, peer int) bool {
	return uint(peer) < uint(n) || (peer == mpi.AnySource && !x.Op.IsSendSide())
}
