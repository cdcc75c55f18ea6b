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
func unifyPeerMembers(gx, rx *RSD, gMembers []int, rank int, idx PeerIndexer) (Param, []int, bool) {
	switch {
	case gx.Peer.Kind == ParamNone && rx.Peer.Kind == ParamNone:
		return NoParam, nil, true
	case gx.Peer.Kind == ParamAny && rx.Peer.Kind == ParamAny:
		return AnyParam, nil, true
	case gx.Peer.Kind == ParamNone || rx.Peer.Kind == ParamNone ||
		gx.Peer.Kind == ParamAny || rx.Peer.Kind == ParamAny:
		// Peerless and wildcard parameters never unify with concrete ones.
		return Param{}, nil, false
	}

	// Generalized forms merge when they agree outright.
	if gx.Peer.Kind == rx.Peer.Kind && gx.Peer.Value == rx.Peer.Value && gx.Peer.Kind != ParamVec {
		return gx.Peer, nil, true
	}

	rxPeer := rx.PeerFor(rank, idx)
	me, ok := idx.CommRankOf(rx.CommID, rank)
	if !ok {
		me = rank
	}

	switch gx.Peer.Kind {
	case ParamAbs:
		if rx.Peer.Kind == ParamAbs && gx.Peer.Value == rx.Peer.Value {
			return gx.Peer, nil, true
		}
		// Generalize — only possible while the group still has a single
		// member (two members sharing one absolute peer can never share a
		// relative offset).
		if len(gMembers) == 1 {
			gRank := gMembers[0]
			offG, okG := relOffset(gx.Peer.Value, gRank, gx.CommID, gx.CommSize, idx)
			offR, okR := relOffset(rxPeer, rank, rx.CommID, rx.CommSize, idx)
			if okG && okR && offG == offR {
				return RelParam(offG), nil, true
			}
			// Butterfly generalization: peer = commRank ^ v.
			if meG, okMG := idx.CommRankOf(gx.CommID, gRank); okMG && ok {
				if v := gx.Peer.Value ^ meG; v == rxPeer^me {
					return XorParam(v), nil, true
				}
			}
		}
	case ParamRel:
		if offR, okR := relOffset(rxPeer, rank, rx.CommID, rx.CommSize, idx); okR && offR == gx.Peer.Value {
			return gx.Peer, nil, true
		}
		// The earlier members may have fit an ambiguous pattern (a two-rank
		// group cannot distinguish t+k from t^k); re-test the butterfly
		// interpretation against every member before giving up.
		if p, ok2 := refitAll(gx, gMembers, rank, rxPeer, me, idx, ParamXor); ok2 {
			return p, nil, true
		}
	case ParamXor:
		if ok && me^rxPeer == gx.Peer.Value {
			return gx.Peer, nil, true
		}
		if p, ok2 := refitAll(gx, gMembers, rank, rxPeer, me, idx, ParamRel); ok2 {
			return p, nil, true
		}
	}

	// Fall back to the explicit per-rank vector.
	members := insertRank(gMembers, rank)
	vec := make([]int, len(members))
	for i, w := range members {
		if w == rank {
			vec[i] = rxPeer
		} else {
			vec[i] = gx.PeerFor(w, idx)
		}
	}
	return VecParam, vec, true
}

// insertRank returns sorted members ∪ {rank} as a fresh slice.
func insertRank(members []int, rank int) []int {
	out := make([]int, 0, len(members)+1)
	placed := false
	for _, m := range members {
		if !placed && rank <= m {
			if rank < m {
				out = append(out, rank)
			}
			placed = true
		}
		out = append(out, m)
	}
	if !placed {
		out = append(out, rank)
	}
	return out
}

// refitAll tests whether every existing group member plus the new rank fits
// a single parameter of the requested kind, returning it if so.
func refitAll(gx *RSD, gMembers []int, rank, rxPeer, me int, idx PeerIndexer, kind ParamKind) (Param, bool) {
	type pair struct{ me, peer int }
	pairs := make([]pair, 0, len(gMembers)+1)
	for _, w := range gMembers {
		mw, ok := idx.CommRankOf(gx.CommID, w)
		if !ok {
			return Param{}, false
		}
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
		if gx.CommSize <= 0 {
			return Param{}, false
		}
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
func relOffset(peer, worldRank, commID, commSize int, idx PeerIndexer) (int, bool) {
	me, ok := idx.CommRankOf(commID, worldRank)
	if !ok || commSize <= 0 {
		return 0, false
	}
	off := (peer - me) % commSize
	if off < 0 {
		off += commSize
	}
	return off, true
}

// Cursor walks the events of one rank through a compressed sequence,
// expanding loops — the paper's per-node "traversal context" used by
// Algorithms 1 and 2. Leaves that do not include the rank are skipped.
type Cursor struct {
	rank  int
	stack []cursorFrame
	cur   *RSD
	index int
}

type cursorFrame struct {
	nodes []Node
	idx   int
	iter  int
	loop  *Loop // nil for the root frame
}

// NewCursor returns a cursor positioned at rank's first event in seq.
func NewCursor(seq []Node, rank int) *Cursor {
	c := &Cursor{rank: rank, stack: []cursorFrame{{nodes: seq}}, index: -1}
	c.advanceToLeaf()
	return c
}

// Rank returns the cursor's rank.
func (c *Cursor) Rank() int { return c.rank }

// Cur returns the RSD at the cursor, or nil when exhausted.
func (c *Cursor) Cur() *RSD { return c.cur }

// Done reports whether the cursor is past the last event.
func (c *Cursor) Done() bool { return c.cur == nil }

// Index returns the zero-based ordinal of the current event for this rank.
func (c *Cursor) Index() int { return c.index }

// InnermostIter returns the current iteration (0-based) of the innermost
// enclosing loop, or 0 when the cursor is at the top level. Together with
// RSD.ComputeMeanAt it lets per-event consumers replay the first-iteration
// compute time where it belongs.
func (c *Cursor) InnermostIter() int {
	for i := len(c.stack) - 1; i >= 1; i-- {
		if c.stack[i].loop != nil {
			return c.stack[i].iter
		}
	}
	return 0
}

// Advance moves to the rank's next event.
func (c *Cursor) Advance() {
	if c.cur == nil {
		return
	}
	c.cur = nil
	c.stack[len(c.stack)-1].idx++
	c.advanceToLeaf()
}

func (c *Cursor) advanceToLeaf() {
	for len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.idx >= len(f.nodes) {
			if f.loop != nil && f.iter+1 < f.loop.Iters {
				f.iter++
				f.idx = 0
				continue
			}
			c.stack = c.stack[:len(c.stack)-1]
			if len(c.stack) > 0 {
				c.stack[len(c.stack)-1].idx++
			}
			continue
		}
		switch n := f.nodes[f.idx].(type) {
		case *RSD:
			if n.Ranks.Contains(c.rank) {
				c.cur = n
				c.index++
				return
			}
			f.idx++
		case *Loop:
			if n.Iters > 0 && ContainsRank(n, c.rank) {
				c.stack = append(c.stack, cursorFrame{nodes: n.Body, loop: n})
			} else {
				f.idx++
			}
		}
	}
}

// EventsOf returns the fully expanded event sequence of one rank — each
// element aliases the compressed RSD it came from. Intended for tests,
// replay and verification; large traces expand to their uncompressed size.
func (t *Trace) EventsOf(rank int) []*RSD {
	g := t.GroupOf(rank)
	if g == nil {
		return nil
	}
	var out []*RSD
	for c := NewCursor(g.Seq, rank); !c.Done(); c.Advance() {
		out = append(out, c.Cur())
	}
	return out
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
