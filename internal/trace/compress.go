package trace

// Builder performs ScalaTrace's on-the-fly intra-rank loop compression: as
// events are appended it repeatedly folds repeated node windows into Loop
// nodes (power-RSDs) and extends existing loops, so memory stays
// proportional to the compressed trace, not the event count.
//
// Fold candidates are found through a memoized tail index instead of
// probing every window length: the index maps node hashes (and loop
// body-tail hashes) to the positions that currently hold them, so an Append
// does O(candidates) hash lookups rather than O(maxWindow) probes, falling
// back to the full structural comparison only on a hash hit. The fold
// decisions — and therefore the compressed output — are identical to the
// exhaustive probe loop: the index enumerates exactly the windows whose
// hash precondition holds, in the same ascending-window order.
type Builder struct {
	seq []Node
	// maxWindow bounds the loop-body length considered for folding.
	maxWindow int
	// rankSensitive makes folding treat rank sets as part of node equality.
	// Per-rank streams leave this off (every leaf has the same singleton
	// rank); the global queue produced by collective alignment needs it on,
	// because folding two structurally equal leaves of *different* ranks
	// would change per-rank semantics.
	rankSensitive bool

	// nodeAt maps a node hash to the positions currently holding a node
	// with that hash (fold case B candidates), as the head of a chain in
	// links. Entries go stale when folds truncate or rewrite the tail;
	// lookups re-validate against the live sequence and maybePrune rebuilds
	// the index periodically.
	nodeAt map[uint64]int32
	// tailAt maps a loop's body-tail hash to the loop's position (fold
	// case A candidates), chained the same way. A loop's body-tail hash
	// never changes when the loop is extended, so entries stay valid as
	// long as the loop does.
	tailAt map[uint64]int32
	// links stores both maps' position chains in one slice, so indexing a
	// position — every Append, and every extension of a loop, whose hash
	// changes with its iteration count — allocates nothing once the slice
	// has grown to the prune interval. A chain reference is the link's
	// index plus one; zero ends the chain.
	links      []posLink
	sincePrune int
	// wscratch is reusable storage for candidate window lengths.
	wscratch []int

	// recycle marks a stream builder (NewStreamBuilder): it owns every leaf
	// appended to it — they all came from its NewLeaf. Once a fold has
	// absorbed a tail window nothing references that window's leaves any
	// more, so they go to free and carry the next events; a loop being
	// extended then allocates no RSDs at all. Builders fed nodes their
	// caller still references (Algorithm 1's global builder, which receives
	// merged group sequences, and the tests' hand-built streams) leave it
	// off.
	recycle bool
	free    []*RSD
}

// posLink is one entry of a tail-index chain.
type posLink struct {
	pos, next int32
}

// DefaultMaxWindow is the default bound on detected loop-body lengths.
const DefaultMaxWindow = 192

// NewBuilder returns a Builder with the default window.
func NewBuilder() *Builder { return &Builder{maxWindow: DefaultMaxWindow} }

// NewBuilderWindow returns a Builder with a custom window bound (used by the
// compression ablation benchmarks). A window below 1 disables folding.
func NewBuilderWindow(w int) *Builder { return &Builder{maxWindow: w} }

// NewGlobalBuilder returns a rank-sensitive Builder for compressing global
// (multi-rank) RSD queues such as Algorithm 1's output.
func NewGlobalBuilder(w int) *Builder {
	return &Builder{maxWindow: w, rankSensitive: true}
}

// NewStreamBuilder returns the Builder for one rank's event stream: a
// Collector's per-rank builders and Algorithm 1's per-rank segment builders.
// Every node appended to it must be a leaf from its NewLeaf that nothing
// else references; in exchange, leaves a fold absorbs are reused for later
// events. Leaves still in the sequence when it is handed to
// MergeRankSeqsOwned leave the builder for good if the merge consumed the
// sequence, and return to the free list with the absorbed ones if it only
// read it (see Reset).
func NewStreamBuilder(w int) *Builder { return &Builder{maxWindow: w, recycle: true} }

// NewLeaf returns the RSD for the stream's next event: one a fold released,
// if any. The caller overwrites every field before appending it.
func (b *Builder) NewLeaf() *RSD {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	return new(RSD)
}

// Reset starts the next stream on a builder whose sequence has been through
// MergeRankSeqsOwned. consumed says whether the merged trace may hold the
// sequence: it may when one rank alone named it, and the sequence then goes
// with its leaves. One that several ranks named was only read, nothing the
// merge returned points into it, and with consumed false its leaves join the
// free list. Either way the tail index's maps and chain storage stay, so a
// builder that is reset once per segment — Algorithm 1 closes one per class
// at every collective — regrows none of them. Unless the stream outgrew a
// prune interval: maps never shrink, and clearing ones that a long stream
// left large would cost every later, shorter stream their full size.
func (b *Builder) Reset(consumed bool) {
	if consumed {
		b.seq = nil
	} else {
		b.release(b.seq)
		clear(b.seq)
		b.seq = b.seq[:0]
	}
	b.sincePrune = 0
	if len(b.links) > b.pruneInterval() {
		b.nodeAt, b.tailAt, b.links = nil, nil, nil
		return
	}
	clear(b.nodeAt)
	clear(b.tailAt)
	b.links = b.links[:0]
}

// release recycles the leaves of a window a fold has just absorbed. They
// are zeroed on the way in: the free list must not pin their slices and
// histograms, and a leaf that were still reachable after all would show as
// an OpNone event instead of silently aliasing a later one.
func (b *Builder) release(window []Node) {
	if !b.recycle {
		return
	}
	for _, n := range window {
		switch x := n.(type) {
		case *RSD:
			*x = RSD{}
			b.free = append(b.free, x)
		case *Loop:
			b.release(x.Body)
		}
	}
}

// Append adds a node to the sequence and compresses the tail.
func (b *Builder) Append(n Node) {
	b.seq = append(b.seq, n)
	b.index(len(b.seq)-1, n)
	for b.foldOnce() {
	}
	b.maybePrune()
}

// Seq returns the compressed sequence built so far. The Builder retains
// ownership while appending continues; callers must not modify the returned
// slice or its nodes. Handing the sequence to MergeRankSeqsOwned transfers
// ownership away from the Builder, after which Append must not be called
// again.
func (b *Builder) Seq() []Node { return b.seq }

// Len returns the current number of top-level nodes.
func (b *Builder) Len() int { return len(b.seq) }

// index records that pos currently holds n. Every position/content change
// re-indexes, so the maps always cover the live sequence; superseded
// entries are filtered at lookup time and dropped by maybePrune.
func (b *Builder) index(pos int, n Node) {
	if b.maxWindow < 1 {
		return
	}
	if b.nodeAt == nil {
		b.nodeAt = make(map[uint64]int32)
		b.tailAt = make(map[uint64]int32)
	}
	b.indexNodeHash(pos, n)
	if lp, ok := n.(*Loop); ok && len(lp.Body) > 0 {
		b.link(b.tailAt, lp.Body[len(lp.Body)-1].Hash(), pos)
	}
}

// indexNodeHash records n's current hash at pos without touching the
// body-tail index (all an in-place loop extension needs).
func (b *Builder) indexNodeHash(pos int, n Node) {
	b.link(b.nodeAt, n.Hash(), pos)
	b.sincePrune++
}

// link pushes pos onto h's chain in m.
func (b *Builder) link(m map[uint64]int32, h uint64, pos int) {
	b.links = append(b.links, posLink{pos: int32(pos), next: m[h]})
	m[h] = int32(len(b.links))
}

// foldOnce attempts a single fold at the tail, returning true if the
// sequence changed. Candidate window lengths come from the tail index; for
// each one the same checks as the exhaustive probe loop run, in the same
// order (ascending window length, loop extension before pair folding).
func (b *Builder) foldOnce() bool {
	L := len(b.seq)
	if L < 2 || b.maxWindow < 1 {
		return false
	}
	last := b.seq[L-1]
	lastHash := last.Hash()

	ws := b.wscratch[:0]
	addCandidate := func(p int32) {
		w := L - 1 - int(p)
		if w < 1 || w > b.maxWindow {
			return
		}
		for _, have := range ws {
			if have == w {
				return
			}
		}
		ws = append(ws, w)
	}
	for _, head := range [...]int32{b.nodeAt[lastHash], b.tailAt[lastHash]} {
		for at := head; at != 0; at = b.links[at-1].next {
			addCandidate(b.links[at-1].pos)
		}
	}
	// Ascending window order, matching the probe loop's preference for the
	// shortest repeat.
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j] < ws[j-1]; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	b.wscratch = ws

	for _, w := range ws {
		// Case A: the node just before the last w nodes is a Loop whose body
		// matches them — extend the loop by one iteration.
		if lp, ok := b.seq[L-1-w].(*Loop); ok && len(lp.Body) == w {
			if lp.Body[w-1].Hash() == lastHash && b.windowsEqual(lp.Body, b.seq[L-w:]) {
				for i := range lp.Body {
					absorb(lp.Body[i], b.seq[L-w+i])
				}
				lp.Iters++
				lp.invalidate()
				ctrFolds.Inc()
				b.release(b.seq[L-w:])
				b.seq = b.seq[:L-w]
				// The loop's own hash changed with its iteration count;
				// re-index it under the new hash (its body-tail entry is
				// still valid).
				b.indexNodeHash(L-1-w, lp)
				return true
			}
		}
		// Case B: the last w nodes repeat the w nodes before them — fold the
		// pair into a 2-iteration loop. The first copy's compute samples are
		// demoted to the first-iteration pool (cold-start times stay
		// separate from steady state, as in ScalaTrace's delta-time
		// histograms).
		if 2*w <= L && b.seq[L-1-w].Hash() == lastHash &&
			b.windowsEqual(b.seq[L-2*w:L-w], b.seq[L-w:]) {
			body := make([]Node, w)
			copy(body, b.seq[L-2*w:L-w])
			for i := range body {
				demoteFirstIteration(body[i])
				absorb(body[i], b.seq[L-w+i])
			}
			loop := &Loop{Iters: 2, Body: body}
			ctrFolds.Inc()
			b.release(b.seq[L-w:])
			b.seq = append(b.seq[:L-2*w], loop)
			b.index(L-2*w, loop)
			return true
		}
	}
	return false
}

// maybePrune drops index entries that no longer describe the live sequence.
// Entries are only ever superseded (their position truncated away or
// rewritten by a fold, both of which re-index the new content), so the live
// ones are exactly what indexing the current sequence afresh produces;
// pruning is purely a size bound and never loses a live candidate.
func (b *Builder) maybePrune() {
	if b.maxWindow < 1 || b.sincePrune < b.pruneInterval() {
		return
	}
	clear(b.nodeAt)
	clear(b.tailAt)
	b.links = b.links[:0]
	for pos, n := range b.seq {
		b.index(pos, n)
	}
	b.sincePrune = 0
}

// pruneInterval is the number of index insertions between two prunes.
func (b *Builder) pruneInterval() int { return 4*b.maxWindow + 64 }

// demoteFirstIteration recursively moves a node's pooled compute samples
// into the first-iteration pool.
func demoteFirstIteration(n Node) {
	switch x := n.(type) {
	case *RSD:
		x.demoteToFirst()
	case *Loop:
		for _, b := range x.Body {
			demoteFirstIteration(b)
		}
	}
}

func (b *Builder) windowsEqual(a, c []Node) bool {
	for i := range a {
		if a[i].Hash() != c[i].Hash() || !b.nodeEqual(a[i], c[i]) {
			return false
		}
	}
	return true
}

func (b *Builder) nodeEqual(x, y Node) bool {
	if b.rankSensitive {
		return nodesEqualWithRanks(x, y)
	}
	return StructEqual(x, y)
}

// nodesEqualWithRanks is StructEqual plus rank-set equality at every leaf.
func nodesEqualWithRanks(a, c Node) bool {
	switch x := a.(type) {
	case *RSD:
		y, ok := c.(*RSD)
		return ok && rsdStructEqual(x, y) && x.Ranks.Equal(y.Ranks)
	case *Loop:
		y, ok := c.(*Loop)
		if !ok || x.Iters != y.Iters || len(x.Body) != len(y.Body) {
			return false
		}
		for i := range x.Body {
			if !nodesEqualWithRanks(x.Body[i], y.Body[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
