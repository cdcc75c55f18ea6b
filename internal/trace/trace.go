package trace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/taskset"
)

// Trace is a complete, merged, compressed application trace: what ScalaTrace
// writes at MPI_Finalize. Ranks with structurally identical behaviour share
// a Group whose parameters are generalized (peers as rank-relative offsets),
// so trace size grows with the number of *distinct behaviours*, not ranks.
type Trace struct {
	// N is the world size of the traced run.
	N int
	// Comms maps communicator IDs to their world-rank groups (ID 0 is the
	// world communicator).
	Comms map[int][]int
	// Groups partition the ranks by behaviour.
	Groups []Group

	// idx is the communicator index CommRankOf answers from, built from Comms
	// on first use (see index). The atomic pointer makes a Trace uncopyable
	// (go vet copylocks) — which it already was by convention: every layer
	// passes *Trace.
	idx atomic.Pointer[commIndex]
}

// Group is the trace of a set of ranks with identical structure.
type Group struct {
	Ranks taskset.Set
	Seq   []Node
}

// CloneComms returns a deep copy of a communicator table, for a trace built
// from another's.
func CloneComms(comms map[int][]int) map[int][]int {
	out := make(map[int][]int, len(comms))
	for id, g := range comms {
		out[id] = append([]int(nil), g...)
	}
	return out
}

// CommGroup returns the world-rank membership of a communicator.
func (t *Trace) CommGroup(commID int) []int { return t.Comms[commID] }

// CommRankOf translates a world rank into a communicator's numbering: the
// first position of worldRank in the group. The answer comes from the index
// in O(1), and is returned only if the group still holds worldRank at that
// position; a miss or a stale hit (Comms edited after the index was built)
// falls back to the scan, so an edit costs time, never a wrong answer.
func (t *Trace) CommRankOf(commID, worldRank int) (int, bool) {
	g := t.Comms[commID]
	if i, ok := t.index().CommRankOf(commID, worldRank); ok && i < len(g) && g[i] == worldRank {
		return i, true
	}
	for i, wr := range g {
		if wr == worldRank {
			return i, true
		}
	}
	return -1, false
}

// index returns the trace's communicator index, building it on first use.
// Concurrent replays of one trace may race to build it; they build equal
// indexes from the (then read-only) Comms and one of them is published.
func (t *Trace) index() *commIndex {
	if ci := t.idx.Load(); ci != nil {
		return ci
	}
	t.idx.CompareAndSwap(nil, newCommIndex(t.Comms))
	return t.idx.Load()
}

// WorldRankOf translates a communicator rank into the world ("absolute")
// numbering — the translation Section 4.2 performs to make generated
// benchmarks readable.
func (t *Trace) WorldRankOf(commID, commRank int) (int, bool) {
	g := t.Comms[commID]
	if commRank < 0 || commRank >= len(g) {
		return -1, false
	}
	return g[commRank], true
}

// GroupOf returns the Group containing the world rank, or nil.
func (t *Trace) GroupOf(rank int) *Group {
	for i := range t.Groups {
		if t.Groups[i].Ranks.Contains(rank) {
			return &t.Groups[i]
		}
	}
	return nil
}

// NodeCount returns the number of nodes in the compressed representation —
// the trace-size metric of the scaling experiments.
func (t *Trace) NodeCount() int {
	total := 0
	for _, g := range t.Groups {
		total += seqNodeCount(g.Seq)
	}
	return total
}

func seqNodeCount(seq []Node) int {
	n := 0
	for _, node := range seq {
		n++
		if lp, ok := node.(*Loop); ok {
			n += seqNodeCount(lp.Body)
		}
	}
	return n
}

// TotalEvents returns the number of concrete MPI events the trace represents
// across all ranks (the uncompressed size).
func (t *Trace) TotalEvents() int {
	total := 0
	for _, g := range t.Groups {
		total += seqTotalEvents(g.Seq)
	}
	return total
}

func seqTotalEvents(seq []Node) int {
	n := 0
	for _, node := range seq {
		switch x := node.(type) {
		case *RSD:
			n += x.Ranks.Size()
		case *Loop:
			n += x.Iters * seqTotalEvents(x.Body)
		}
	}
	return n
}

// unifyPeerMembers computes the generalized peer parameter that covers both
// the group's existing parameter and the new rank's concrete one. When no
// affine (relative) or bitwise (xor) pattern covers both, the peers fall
// back to an explicit per-rank vector (ScalaTrace records irregular
// parameters as value lists for the same reason), ordered by the world ranks
// of gMembers ∪ {rank}. gMembers holds the group's world ranks in ascending
// order — the merge fold passes member-prefix slices, so no rank set is
// materialized in the hot path — and idx supplies communicator translation.
// Members are folded in ascending rank order, here and in the legacy
// reference: rank exceeds every member of gMembers, so a vector is the
// group's vector with rank's peer appended, built from gMembers only when the
// group's parameter first degrades to one. A vector leaf therefore costs one
// step per member, not one rebuild. rp is rank's peer parameter for rx: rx's
// own, or the absolute peer rank's class gives it (Class.Peer).
func unifyPeerMembers(gx, rx *RSD, rp Param, gMembers []int, rank int, idx PeerIndexer) (Param, []int, bool) {
	switch {
	case gx.Peer.Kind == ParamNone && rp.Kind == ParamNone:
		return NoParam, nil, true
	case gx.Peer.Kind == ParamAny && rp.Kind == ParamAny:
		return AnyParam, nil, true
	case gx.Peer.Kind == ParamNone || rp.Kind == ParamNone ||
		gx.Peer.Kind == ParamAny || rp.Kind == ParamAny:
		// Peerless and wildcard parameters never unify with concrete ones.
		return Param{}, nil, false
	}

	// Generalized forms merge when they agree outright.
	if gx.Peer.Kind == rp.Kind && gx.Peer.Value == rp.Value && gx.Peer.Kind != ParamVec {
		return gx.Peer, nil, true
	}

	rxPeer := rp.Value
	if rp.Kind != ParamAbs {
		rxPeer = rx.PeerFor(rank, idx)
	}
	me, _ := idx.CommRankOf(rx.CommID, rank)

	switch gx.Peer.Kind {
	case ParamAbs:
		if rp.Kind == ParamAbs && gx.Peer.Value == rp.Value {
			return gx.Peer, nil, true
		}
		// Generalize — only possible while the group still has a single
		// member (two members sharing one absolute peer can never share a
		// relative offset).
		if len(gMembers) == 1 {
			gRank := gMembers[0]
			offG := relOffset(gx.Peer.Value, gRank, gx.CommID, gx.CommSize, idx)
			if offG == relOffset(rxPeer, rank, rx.CommID, rx.CommSize, idx) {
				return RelParam(offG), nil, true
			}
			// Butterfly generalization: peer = commRank ^ v.
			if meG, _ := idx.CommRankOf(gx.CommID, gRank); gx.Peer.Value^meG == rxPeer^me {
				return XorParam(gx.Peer.Value ^ meG), nil, true
			}
		}
	case ParamRel:
		if relOffset(rxPeer, rank, rx.CommID, rx.CommSize, idx) == gx.Peer.Value {
			return gx.Peer, nil, true
		}
		// The earlier members may have fit an ambiguous pattern (a two-rank
		// group cannot distinguish t+k from t^k); re-test the butterfly
		// interpretation against every member before giving up.
		if p, ok2 := refitAll(gx, gMembers, rank, rxPeer, me, idx, ParamXor); ok2 {
			return p, nil, true
		}
	case ParamXor:
		if me^rxPeer == gx.Peer.Value {
			return gx.Peer, nil, true
		}
		if p, ok2 := refitAll(gx, gMembers, rank, rxPeer, me, idx, ParamRel); ok2 {
			return p, nil, true
		}
	}

	// Fall back to the explicit per-rank vector.
	if gx.Peer.Kind == ParamVec {
		return VecParam, append(gx.PeerVec, rxPeer), true
	}
	vec := make([]int, len(gMembers), len(gMembers)+1)
	for i, w := range gMembers {
		vec[i] = gx.PeerFor(w, idx)
	}
	return VecParam, append(vec, rxPeer), true
}

// refitAll tests whether every existing group member plus the new rank fits
// a single parameter of the requested kind, returning it if so.
func refitAll(gx *RSD, gMembers []int, rank, rxPeer, me int, idx PeerIndexer, kind ParamKind) (Param, bool) {
	type pair struct{ me, peer int }
	pairs := make([]pair, 0, len(gMembers)+1)
	for _, w := range gMembers {
		mw, _ := idx.CommRankOf(gx.CommID, w)
		pairs = append(pairs, pair{me: mw, peer: gx.PeerFor(w, idx)})
	}
	pairs = append(pairs, pair{me: me, peer: rxPeer})

	switch kind {
	case ParamXor:
		v := pairs[0].me ^ pairs[0].peer
		for _, p := range pairs[1:] {
			if p.me^p.peer != v {
				return Param{}, false
			}
		}
		return XorParam(v), true
	case ParamRel:
		off := (pairs[0].peer - pairs[0].me) % gx.CommSize
		if off < 0 {
			off += gx.CommSize
		}
		for _, p := range pairs[1:] {
			o := (p.peer - p.me) % gx.CommSize
			if o < 0 {
				o += gx.CommSize
			}
			if o != off {
				return Param{}, false
			}
		}
		return RelParam(off), true
	default:
		return Param{}, false
	}
}

// relOffset computes (peer - commRank(worldRank)) mod commSize.
func relOffset(peer, worldRank, commID, commSize int, idx PeerIndexer) int {
	me, _ := idx.CommRankOf(commID, worldRank)
	off := (peer - me) % commSize
	if off < 0 {
		off += commSize
	}
	return off
}

// String renders the trace in a readable indented form.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace nprocs=%d groups=%d nodes=%d events=%d\n",
		t.N, len(t.Groups), t.NodeCount(), t.TotalEvents())
	for _, g := range t.Groups {
		fmt.Fprintf(&sb, "group %s\n", g.Ranks)
		writeSeq(&sb, g.Seq, 1)
	}
	return sb.String()
}

func writeSeq(sb *strings.Builder, seq []Node, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, n := range seq {
		switch x := n.(type) {
		case *RSD:
			fmt.Fprintf(sb, "%s%s\n", indent, x)
		case *Loop:
			fmt.Fprintf(sb, "%sloop %d:\n", indent, x.Iters)
			writeSeq(sb, x.Body, depth+1)
		}
	}
}
