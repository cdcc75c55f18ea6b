package trace

import (
	"slices"
	"sync"
)

// Builder performs ScalaTrace's on-the-fly intra-rank loop compression: as
// events are appended it repeatedly folds repeated node windows into Loop
// nodes (power-RSDs) and extends existing loops, so memory stays
// proportional to the compressed trace, not the event count.
//
// Most appends are the next leaf of an iteration of the tail loop. Once arm
// has shown that no fold but the ones the loop's body predicts can fire
// before that iteration completes, such a leaf is only compared with the
// leaf it repeats, found by walking the body through its nested loops, and
// the folds the body predicts — a nested loop's pair fold and extensions,
// the tail loop's extension — are made without a candidate search (the
// pending-iteration cursor).
// Other appends find fold candidates through a memoized tail index: it maps
// node hashes (and loop body-tail hashes) to the positions holding them, so
// an Append does O(candidates) hash lookups, not O(maxWindow) probes. Either
// way the fold decisions, and so the output, are the exhaustive probe loop's.
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
	// recycle marks a stream builder (NewStreamBuilder): it owns every leaf
	// appended to it — they all came from its NewLeaf — and every loop in
	// it, made by its own folds. Once a fold has absorbed a tail window
	// nothing references that window's nodes any more, so its leaves go to
	// free and carry the next events and its loops go to loops and carry the
	// next pair folds; a loop being extended then allocates no nodes at all,
	// nested loops included. Builders fed nodes their caller still
	// references (Algorithm 1's global builder, which receives merged group
	// sequences, and the tests' hand-built streams) leave it off.
	recycle bool
	// frames is the pending-iteration cursor: frames[0] is the tail loop lp,
	// at frames[0].start-1, and each later frame a loop nested in the one
	// before it whose current iteration is being built. The nodes after lp
	// are what the indexed path would hold there, and none is indexed.
	// Disarmed, frames is empty; its array stays for the next arm.
	// squareFree is the last loop hasSquare cleared, nested the last one
	// deepAt judged, at nestedAt, and keys is nests' scratch. The path
	// counts go to publishPaths. The small fields share words: a Builder is
	// made per rank and per lockstep class.
	cursorAppends, indexedAppends int32
	nestedAt                      int32
	nestedDeep                    bool
	frames                        []frame
	squareFree, nested            *Loop
	keys                          []uint64

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
	// free holds the leaves folds released, for NewLeaf, and loops the
	// loops they released, for pair (see recycle).
	free  []*RSD
	loops []*Loop
}

// frame is one loop of the cursor's walk: its body node k holds or leads to
// the next leaf, it iterations are complete, and the one in progress — or
// the loop the earlier ones folded into — starts at position start.
type frame struct {
	loop         *Loop
	k, it, start int32
}

// posLink is one entry of a tail-index chain.
type posLink struct {
	pos, next int32
}

// DefaultMaxWindow is the default bound on detected loop-body lengths.
const DefaultMaxWindow = 192

// NewBuilderWindow returns a Builder with a custom window bound (used by the
// compression ablation benchmarks). A window below 1 disables folding.
func NewBuilderWindow(w int) *Builder { return &Builder{maxWindow: w} }

// NewGlobalBuilder returns a rank-sensitive Builder for compressing global
// (multi-rank) RSD queues such as Algorithm 1's output.
func NewGlobalBuilder(w int) *Builder {
	return &Builder{maxWindow: w, rankSensitive: true}
}

// NewStreamBuilder returns the Builder for one rank's event stream: a
// Collector's per-rank builders, Algorithm 1's per-class segment builders and
// Pinned's one builder, reset after each rank.
// Every node appended to it must be a leaf from its NewLeaf that nothing
// else references; in exchange, leaves a fold absorbs are reused for later
// events. Leaves still in the sequence when it is handed to MergeClasses
// leave the builder for good if the merge consumed the sequence, and return
// to the free list with the absorbed ones if it only read it (see Reset).
//
// A builder of the default window outlives its stream: Recycle hands it to
// streamBuilders, and NewStreamBuilder takes it from there, with its free
// lists, its tail index's storage and its scratch, so a warm builder
// allocates nothing for what earlier streams already grew.
func NewStreamBuilder(w int) *Builder {
	if w == DefaultMaxWindow {
		if b, ok := streamBuilders.Get().(*Builder); ok {
			return b
		}
	}
	return &Builder{maxWindow: w, recycle: true}
}

// streamBuilders holds the recycled stream builders of the default window.
// A sync.Pool, not a capped list: the garbage collector empties it within two
// cycles, so an operation that never traces does not pay for marking idle
// builders at every collection.
var streamBuilders sync.Pool

// Recycle ends the builder's life: it resets it (see Reset(true)) and, if it
// is a stream builder of the default window, hands it to the next
// NewStreamBuilder. Call it once MergeClasses has consumed or released the
// builder's sequence, and use the builder no more.
func (b *Builder) Recycle() {
	b.Reset(true)
	if b.recycle && b.maxWindow == DefaultMaxWindow {
		streamBuilders.Put(b)
	}
}

// NewLeaf returns the RSD for the stream's next event: one a fold released,
// if any. It is zero but for its compute pools, which are nil or empty: the
// caller sets every other field it needs and keeps the pools.
func (b *Builder) NewLeaf() *RSD {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	return new(RSD)
}

// Reset starts the next stream on a builder whose sequence has been through
// MergeClasses, or will go through it consumed. consumed says whether the
// merged trace may hold the sequence: it may when the sequence is the Class
// of one member, and it then goes with its leaves, so the builder may be
// reset as soon as Seq has taken it, before the merge runs (Pinned builds
// every rank's stream on one builder so). The sequence of a class of several
// members is only read, nothing the merge returns points into it, and it
// must have been through the merge before Reset(false) puts its leaves on the
// free list. Either way the tail index's maps and chain storage stay, so a
// builder that is reset once per segment — Algorithm 1 closes one per class
// at every collective — regrows none of them. Unless the stream outgrew a
// prune interval: maps never shrink, and clearing ones that a long stream
// left large would cost every later, shorter stream their full size.
func (b *Builder) Reset(consumed bool) {
	b.publishPaths()
	if consumed {
		b.seq = nil
	} else {
		b.release(b.seq)
		clear(b.seq)
		b.seq = b.seq[:0]
	}
	b.sincePrune = 0
	b.frames, b.squareFree, b.nested = b.frames[:0], nil, nil
	if len(b.links) > b.pruneInterval() {
		b.nodeAt, b.tailAt, b.links = nil, nil, nil
		return
	}
	clear(b.nodeAt)
	clear(b.tailAt)
	b.links = b.links[:0]
}

// release recycles the nodes of a window a fold has just absorbed. They
// are zeroed on the way in: the free lists must not pin their slices, and a
// leaf that were still reachable after all would show as an OpNone event, a
// loop as one of no iterations, instead of silently aliasing a later one. A
// leaf keeps its compute pools, emptied, for the folds of its next event. A
// loop the memos hold is forgotten there.
func (b *Builder) release(window []Node) {
	if !b.recycle {
		return
	}
	for _, n := range window {
		switch x := n.(type) {
		case *RSD:
			*x = RSD{Compute: x.Compute, FirstCompute: x.FirstCompute}
			if x.Compute != nil {
				x.Compute.Reset()
			}
			if x.FirstCompute != nil {
				x.FirstCompute.Reset()
			}
			b.free = append(b.free, x)
		case *Loop:
			b.release(x.Body)
			clear(x.Body)
			*x = Loop{Body: x.Body[:0]}
			b.loops = append(b.loops, x)
			if x == b.squareFree {
				b.squareFree = nil
			}
			if x == b.nested {
				b.nested = nil
			}
		}
	}
}

// Append adds a node to the sequence and compresses the tail.
func (b *Builder) Append(n Node) {
	b.seq = append(b.seq, n)
	switch leaf, ok := n.(*RSD); {
	case len(b.frames) == 0:
		b.indexFrom(len(b.seq) - 1)
	case ok && b.follow(leaf):
		if b.cursorAppends++; len(b.frames) > 0 {
			return
		}
	default:
		b.indexFrom(int(b.frames[0].start))
		b.frames = b.frames[:0]
	}
	for b.foldOnce() {
	}
	b.maybePrune()
	b.arm()
}

// indexFrom indexes the nodes from position from on, for an append that
// takes the indexed path: the node appended and what the cursor left
// unindexed.
func (b *Builder) indexFrom(from int) {
	b.indexedAppends++
	for pos := from; pos < len(b.seq); pos++ {
		b.index(pos, b.seq[pos])
	}
}

// follow reports whether leaf, just appended, is the next leaf of the armed
// iteration and, if it is, makes the folds it completes, innermost first,
// as foldOnce would: a nested loop's second iteration pair-folds, each later
// one extends the loop, and lp's last leaf extends lp and disarms the
// cursor. It enters a nested loop only if deepAt allows it; otherwise the
// cursor stops at the first one.
func (b *Builder) follow(leaf *RSD) bool {
	f := b.frames[len(b.frames)-1]
	want := f.loop.Body[f.k]
	for lq, ok := want.(*Loop); ok; lq, ok = want.(*Loop) {
		if top := b.frames[0]; !b.deepAt(int(top.start)-1, top.loop) {
			return false
		}
		b.frames = append(b.frames, frame{loop: lq, start: int32(len(b.seq) - 1)})
		want = lq.Body[0]
	}
	if !b.nodeEqual(leaf, want) {
		return false
	}
	for {
		f := &b.frames[len(b.frames)-1]
		if f.k++; int(f.k) < len(f.loop.Body) {
			return true
		}
		at := int(f.start)
		if len(b.frames) == 1 {
			b.frames = b.frames[:0]
			b.extend(at-1, f.loop)
			return true
		}
		switch f.k, f.it = 0, f.it+1; {
		case f.it == 2:
			b.pair(len(b.seq), len(f.loop.Body))
		case f.it > 2:
			b.absorbNext(at, b.seq[at].(*Loop))
		}
		if int(f.it) < f.loop.Iters {
			return true
		}
		b.frames = b.frames[:len(b.frames)-1]
	}
}

// publishPaths moves the per-path append counts to telemetry.
func (b *Builder) publishPaths() {
	ctrCursorAppends.Add(int64(b.cursorAppends))
	ctrIndexedAppends.Add(int64(b.indexedAppends))
	b.cursorAppends, b.indexedAppends = 0, 0
}

// arm sets the cursor on the tail loop lp, at P, if no fold but the ones
// lp's body predicts can fire before its next iteration completes. While
// the nodes after lp are a prefix of lp.Body, a window that would fold first
// either lies among them, so the body holds a square, or holds lp
// (longFold). Inside a nested loop they end in copies of nodes under lp's
// loops, which must fold with nothing but their own iterations: deepAt,
// asked when the cursor first reaches a nested loop.
func (b *Builder) arm() {
	P := len(b.seq) - 1
	if lp, ok := b.seq[P].(*Loop); ok && len(lp.Body) > 0 && len(lp.Body) <= b.maxWindow &&
		!b.hasSquare(lp) && !b.longFold(P, lp) {
		b.frames = append(b.frames[:0], frame{loop: lp, start: int32(P + 1)})
	}
}

// deepAt reports whether the cursor armed on lp, at P, may enter lp's
// nested loops: nests(lp) && !innerNear(P). The verdict is kept for the last
// loop judged. Nothing before lp changes while lp stays at P, and a loop that
// left the top level never returns to it but recycled, which release makes
// deepAt forget.
func (b *Builder) deepAt(P int, lp *Loop) bool {
	if lp != b.nested || P != int(b.nestedAt) {
		b.nested, b.nestedAt = lp, int32(P)
		b.nestedDeep = b.nests(lp) && !b.innerNear(P)
	}
	return b.nestedDeep
}

// nests reports whether the cursor may follow lp's nested loops as far as
// lp's own tail is concerned, and leaves in keys the hashes innerNear looks
// for before it: those of lp's inner nodes — every node under a loop of
// lp.Body — and of Loop{i, C} for 2 <= i < n, the partial loops a nested
// Loop{n, C} is while it is built, at most maxWindow of those. No two inner
// nodes may share a hash, nor one with a node of lp.Body; every nested loop
// repeats at least twice a body that fits the window, and none under a
// nested loop is its parent's whole body. A partial loop differs from every
// other partial loop and from every node of lp's tree in its iterations or
// in its body's nodes, so it needs no hash check. A loop without nested
// loops passes with no keys: the rule's depth one is hasSquare and longFold
// alone.
//
// Why that suffices: inside the nested loop of the innermost frame, whose
// body is C, the tail node z is a copy of an inner node or a partial loop.
// By the distinct hashes, the only other node after lp equal to z is z's
// copy in the frame's unfolded first iteration, len(C) before it, and the
// only loops whose body ends like z are the frame's own fold and the copy of
// the frame's loop in its parent's unfolded first iteration, which is
// followed by that iteration's other nodes unless the loop is its parent's
// whole body. So fold case B fires only when a second iteration is complete
// and case A only on the frame's fold: the folds follow makes. A fold whose
// window reaches lp or before it would make a node after lp equal to lp,
// which is larger than any of them, or to a node of lp.Body (case A at lp),
// whose hashes no inner node shares, or make z equal to a node before lp,
// or to the body tail of a loop there, which innerNear rules out.
func (b *Builder) nests(lp *Loop) bool {
	b.keys = b.keys[:0]
	partials := 0
	for _, n := range lp.Body {
		if lq, ok := n.(*Loop); ok && !b.innerKeys(lq, &partials) {
			return false
		}
	}
	if partials > b.maxWindow {
		return false
	}
	slices.Sort(b.keys)
	for i := 1; i < len(b.keys); i++ {
		if b.keys[i] == b.keys[i-1] {
			return false
		}
	}
	for _, n := range lp.Body {
		if _, found := slices.BinarySearch(b.keys, n.Hash()); found {
			return false
		}
	}
	b.partialKeys(lp.Body)
	return true
}

// innerKeys appends to keys the hashes of the nodes under lq and adds up
// its partial loops, or reports that lq breaks a rule of nests.
func (b *Builder) innerKeys(lq *Loop, partials *int) bool {
	if lq.Iters < 2 || len(lq.Body) == 0 || len(lq.Body) > b.maxWindow {
		return false
	}
	*partials += lq.Iters - 2
	for _, n := range lq.Body {
		b.keys = append(b.keys, n.Hash())
		if c, ok := n.(*Loop); ok && (len(lq.Body) == 1 || !b.innerKeys(c, partials)) {
			return false
		}
	}
	return true
}

// partialKeys appends to keys the hashes of the partial loops of every loop
// in body, at any depth.
func (b *Builder) partialKeys(body []Node) {
	for _, n := range body {
		if lq, ok := n.(*Loop); ok {
			for i := 2; i < lq.Iters; i++ {
				b.keys = append(b.keys, loopHash(i, lq.Body))
			}
			b.partialKeys(lq.Body)
		}
	}
}

// innerNear reports whether a node at most maxWindow before P, where the
// tail loop nests judged sits, has one of its keys as hash, or is a loop
// whose body ends in such a node: a window of a state inside a nested loop
// that reaches lp or before it needs one.
func (b *Builder) innerNear(P int) bool {
	near := func(q int) bool { return q < P && q >= P-b.maxWindow }
	for _, h := range b.keys {
		for at := b.nodeAt[h]; at != 0; at = b.links[at-1].next {
			if q := int(b.links[at-1].pos); near(q) && b.seq[q].Hash() == h {
				return true
			}
		}
		for at := b.tailAt[h]; at != 0; at = b.links[at-1].next {
			if q := int(b.links[at-1].pos); near(q) {
				if lq, ok := b.seq[q].(*Loop); ok && len(lq.Body) > 0 && lq.Body[len(lq.Body)-1].Hash() == h {
					return true
				}
			}
		}
	}
	return false
}

// hasSquare reports whether lp's body holds a window immediately repeated. A
// body never changes shape, so the last loop found without one is kept.
func (b *Builder) hasSquare(lp *Loop) bool {
	if lp != b.squareFree && b.squareIn(lp.Body) {
		return true
	}
	b.squareFree = lp
	return false
}

// squareIn reports whether body holds a window immediately repeated, by
// divide and conquer (Main and Lorentz): a square lies in one half or crosses
// the middle. A crossing square of period w lies on a run of w positions i
// with body[i] equal to body[i+w], and the run holds mid-w (the square's
// centre is at or before mid) or mid (after it). Each run is grown on the
// nodes' cached hashes, at most w steps either way, and windowsEqual
// confirms a candidate only where a run of w equal hashes proves one. Where
// runs are short, as in the square-free bodies of traces, a body of m nodes
// costs O(m log m) hash comparisons, against the exhaustive check's O(m²);
// a long run without a square (nodes equal but for their ranks, in a global
// builder) costs a windowsEqual per candidate in it. Nothing is allocated.
func (b *Builder) squareIn(body []Node) bool {
	m := len(body)
	if m < 2 {
		return false
	}
	mid := m / 2
	if b.squareIn(body[:mid]) || b.squareIn(body[mid:]) {
		return true
	}
	for w := 1; 2*w <= m; w++ {
		for _, at := range [2]int{mid - w, mid} {
			if at < 0 || at+w >= m || body[at].Hash() != body[at+w].Hash() {
				continue
			}
			lo, hi := at, at+1 // the run [lo, hi)
			for lo > max(0, at-w+1) && body[lo-1].Hash() == body[lo-1+w].Hash() {
				lo--
			}
			for hi < min(m-w, at+w) && body[hi].Hash() == body[hi+w].Hash() {
				hi++
			}
			for p := lo; p+w <= hi; p++ {
				if b.windowsEqual(body[p:p+w], body[p+w:p+2*w]) {
					return true
				}
			}
		}
	}
	return false
}

// longFold reports whether a window holding the tail loop lp, at P, folds
// once pending leaves equal to lp.Body[:k+1] follow it, for a k short of the
// completing leaf. Fold case B at window w needs a node equal to lp at P-w,
// found under lp's hash in nodeAt; case A a loop whose body ends in a node
// equal to lp.Body[k], found under that node's hash in tailAt.
func (b *Builder) longFold(P int, lp *Loop) bool {
	m := len(lp.Body)
	for at := b.nodeAt[lp.Hash()]; at != 0; at = b.links[at-1].next {
		q, w := int(b.links[at-1].pos), P-int(b.links[at-1].pos)
		for k := max(0, 2*w-P-2); w <= b.maxWindow && k <= min(w-2, m-2); k++ {
			if first := b.seq[q+k+2-w : q+k+2]; b.windowsEqual(first[:w-k-1], b.seq[q+k+2:P+1]) &&
				b.windowsEqual(first[w-k-1:], lp.Body[:k+1]) {
				return true
			}
		}
	}
	for k := 0; k < m-1; k++ {
		for at := b.tailAt[lp.Body[k].Hash()]; at != 0; at = b.links[at-1].next {
			q, e := int(b.links[at-1].pos), P-int(b.links[at-1].pos)
			if lq, ok := b.seq[min(q, P)].(*Loop); ok && e > 0 && len(lq.Body) == e+k+1 && e+k+1 <= b.maxWindow &&
				b.windowsEqual(lq.Body[:e], b.seq[q+1:P+1]) && b.windowsEqual(lq.Body[e:], lp.Body[:k+1]) {
				return true
			}
		}
	}
	return false
}

// Seq returns the compressed sequence built so far. The Builder retains
// ownership while appending continues; callers must not modify the returned
// slice or its nodes. Handing the sequence to MergeClasses transfers
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
				b.extend(L-1-w, lp)
				return true
			}
		}
		// Case B: the last w nodes repeat the w nodes before them — fold the
		// pair into a 2-iteration loop.
		if 2*w <= L && b.seq[L-1-w].Hash() == lastHash &&
			b.windowsEqual(b.seq[L-2*w:L-w], b.seq[L-w:]) {
			b.index(L-2*w, b.pair(L, w))
			return true
		}
	}
	return false
}

// pair is fold case B on the first L nodes, of which the last w repeat the
// w before them: both become a two-iteration loop, returned, at L-2w. The
// first copy's compute samples are demoted to the first-iteration pool
// (cold-start times stay separate from steady state, as in ScalaTrace's
// delta-time histograms). The loop is not indexed.
func (b *Builder) pair(L, w int) *Loop {
	var loop *Loop
	if n := len(b.loops); n > 0 {
		loop, b.loops = b.loops[n-1], b.loops[:n-1]
	} else {
		loop = new(Loop)
	}
	loop.Iters, loop.Body = 2, append(loop.Body, b.seq[L-2*w:L-w]...)
	body := loop.Body
	for i := range body {
		demoteFirstIteration(body[i])
		absorb(body[i], b.seq[L-w+i])
	}
	ctrFolds.Inc()
	b.release(b.seq[L-w:])
	b.seq = append(b.seq[:L-2*w], loop)
	return loop
}

// extend is fold case A: lp, at position at, absorbs the iteration after it.
func (b *Builder) extend(at int, lp *Loop) {
	b.absorbNext(at, lp)
	// The loop's own hash changed with its iteration count; re-index it under
	// the new hash (its body-tail entry is still valid).
	b.indexNodeHash(at, lp)
}

// absorbNext is extend without the index: what the cursor does to a nested
// loop, which sits among nodes that are not indexed.
func (b *Builder) absorbNext(at int, lp *Loop) {
	for i := range lp.Body {
		absorb(lp.Body[i], b.seq[at+1+i])
	}
	lp.Iters++
	lp.invalidate()
	ctrFolds.Inc()
	b.release(b.seq[at+1:])
	b.seq = b.seq[:at+1]
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
