package trace

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// mleaf builds a collected-form leaf the way the Collector's tracer does:
// singleton rank set, single pending compute sample.
func mleaf(rank, n int, op mpi.Op, site uint64, peer Param, tag, size int, comp float64) *RSD {
	r := &RSD{
		Op:       op,
		Site:     site,
		Ranks:    taskset.Of(rank),
		CommID:   0,
		CommSize: n,
		Peer:     peer,
		Tag:      tag,
		Size:     size,
		Root:     -1,
		Wildcard: peer.Kind == ParamAny,
	}
	r.SetComputeSample(comp)
	return r
}

func worldComms(n int) map[int][]int {
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	return map[int][]int{0: world}
}

func cloneComms(in map[int][]int) map[int][]int {
	out := make(map[int][]int, len(in))
	for id, g := range in {
		out[id] = append([]int(nil), g...)
	}
	return out
}

// buildSeqs compresses per-rank event streams through the Builder, the way
// collection does, so scenarios exercise loop nodes as well as plain leaves.
func buildSeqs(n int, emit func(rank int, b *Builder)) [][]Node {
	seqs := make([][]Node, n)
	for r := 0; r < n; r++ {
		b := NewBuilderWindow(DefaultMaxWindow)
		emit(r, b)
		seqs[r] = b.Seq()
	}
	return seqs
}

type mergeScenario struct {
	name  string
	n     int
	comms func(n int) map[int][]int
	build func(n int) [][]Node
}

func mergeScenarios() []mergeScenario {
	return []mergeScenario{
		{
			// Every rank runs the same looped ring phase; peers generalize
			// to rel+1 / rel-1 and all ranks land in one group.
			name: "ring-loop", n: 16, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					for it := 0; it < 10; it++ {
						b.Append(mleaf(r, n, mpi.OpSend, 1, AbsParam((r+1)%n), 7, 1024, 1.5+float64(r)*0.25))
						b.Append(mleaf(r, n, mpi.OpRecv, 2, AbsParam((r+n-1)%n), 7, 1024, 0.5))
						b.Append(mleaf(r, n, mpi.OpBarrier, 3, NoParam, 0, 0, 2.0+float64(it)*0.125))
					}
				})
			},
		},
		{
			// Root behaves differently from everyone else: two groups, the
			// non-root one with a shared abs0 peer.
			name: "all-to-root", n: 16, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					if r == 0 {
						for s := 1; s < n; s++ {
							b.Append(mleaf(r, n, mpi.OpRecv, 10, AbsParam(s), 3, 64, 0.75))
						}
						return
					}
					b.Append(mleaf(r, n, mpi.OpSend, 11, AbsParam(0), 3, 64, 1.0+float64(r)))
				})
			},
		},
		{
			// Butterfly exchange: abs peers generalize to xor offsets.
			name: "xor-butterfly", n: 16, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					for s := 1; s < n; s *= 2 {
						b.Append(mleaf(r, n, mpi.OpIsend, 20, AbsParam(r^s), 9, 4096, 3.0))
						b.Append(mleaf(r, n, mpi.OpRecv, 21, AbsParam(r^s), 9, 4096, 0.25*float64(r+1)))
					}
				})
			},
		},
		{
			// Peers follow no rel/xor/abs pattern: the merge degrades to an
			// explicit per-rank vector.
			name: "irregular-vec", n: 12, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					b.Append(mleaf(r, n, mpi.OpSend, 30, AbsParam((r*5+3)%n), 1, 256, 1.0))
					b.Append(mleaf(r, n, mpi.OpRecv, 31, AbsParam((r*7+1)%n), 1, 256, 1.0))
				})
			},
		},
		{
			// Three behaviour classes decided by sequence shape and tag.
			name: "mixed-classes", n: 18, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					tag := 5
					if r%3 == 1 {
						tag = 6
					}
					b.Append(mleaf(r, n, mpi.OpSend, 40, AbsParam((r+1)%n), tag, 128, 0.5))
					if r%3 == 0 {
						b.Append(mleaf(r, n, mpi.OpBarrier, 41, NoParam, 0, 0, 4.0))
					}
				})
			},
		},
		{
			// Disjoint sub-communicators: even and odd ranks form separate
			// groups keyed by CommID, on top of a world barrier.
			name: "multi-comm", n: 8,
			comms: func(n int) map[int][]int {
				c := worldComms(n)
				even, odd := []int{}, []int{}
				for r := 0; r < n; r++ {
					if r%2 == 0 {
						even = append(even, r)
					} else {
						odd = append(odd, r)
					}
				}
				c[1], c[2] = even, odd
				return c
			},
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					commID := 1 + r%2
					leaf := mleaf(r, n, mpi.OpAllreduce, 50, NoParam, 0, 8, 1.0+float64(r%2))
					leaf.CommID = commID
					leaf.CommSize = n / 2
					b.Append(leaf)
					b.Append(mleaf(r, n, mpi.OpBarrier, 51, NoParam, 0, 0, 0.5))
				})
			},
		},
		{
			// Wildcard receives stay ParamAny and only unify with each other.
			name: "wildcard-any", n: 8, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					if r == 0 {
						for s := 1; s < n; s++ {
							b.Append(mleaf(r, n, mpi.OpRecv, 60, AnyParam, mpi.AnyTag, 512, 0.125))
						}
						return
					}
					b.Append(mleaf(r, n, mpi.OpSend, 61, AbsParam(0), 2, 512, 2.5))
				})
			},
		},
		{
			// Counts vectors participate in group identity.
			name: "counts-vectors", n: 8, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					leaf := mleaf(r, n, mpi.OpAllgatherv, 70, NoParam, 0, 96, 1.0)
					leaf.Counts = []int{8, 16, 24, 32}
					if r >= n/2 {
						leaf.Counts = []int{8, 16, 24, 33}
					}
					b.Append(leaf)
				})
			},
		},
		{
			// Nested loops from two-level repetition; the fold walks into
			// loop bodies position by position.
			name: "nested-loops", n: 8, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					for outer := 0; outer < 4; outer++ {
						for inner := 0; inner < 3; inner++ {
							b.Append(mleaf(r, n, mpi.OpSend, 80, AbsParam((r+2)%n), 4, 2048, 1.0+float64(inner)))
							b.Append(mleaf(r, n, mpi.OpRecv, 81, AbsParam((r+n-2)%n), 4, 2048, 0.5))
						}
						b.Append(mleaf(r, n, mpi.OpAllreduce, 82, NoParam, 0, 8, 6.0+float64(outer)))
					}
				})
			},
		},
		{
			// Reverse ring: negative relative offsets.
			name: "reverse-ring", n: 10, comms: worldComms,
			build: func(n int) [][]Node {
				return buildSeqs(n, func(r int, b *Builder) {
					b.Append(mleaf(r, n, mpi.OpSend, 90, AbsParam((r+n-1)%n), 8, 64, 0.25))
					b.Append(mleaf(r, n, mpi.OpRecv, 91, AbsParam((r+1)%n), 8, 64, 0.25))
				})
			},
		},
	}
}

func encodeTrace(t *testing.T, tr *Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.String()
}

// TestMergeMatchesLegacy asserts that the merge reproduces the reference
// first-fit fold bit-for-bit — group membership, generalized peers, rank
// sets and pooled histogram sums.
func TestMergeMatchesLegacy(t *testing.T) {
	for _, sc := range mergeScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			comms := sc.comms(sc.n)
			want := encodeTrace(t, mergeRankSeqsLegacy(sc.n, cloneComms(comms), sc.build(sc.n)))
			got := encodeTrace(t, MergeRankSeqsOwned(sc.n, cloneComms(comms), sc.build(sc.n)))
			if got != want {
				t.Fatalf("merge diverges from legacy\nlegacy:\n%s\nmerge:\n%s", want, got)
			}
		})
	}
}

// TestMergeSharedSequences hands the merge sequences that several ranks
// name — the same slice in their slots of seqs — interleaved with private
// ones, two shared sequences landing in one group: the result must be the
// merge of a private copy per rank, no node of a shared sequence may be
// reachable from it, and the shared sequences must come back as they went
// in.
func TestMergeSharedSequences(t *testing.T) {
	const n = 12
	ring := func(rank int, comp float64) []Node {
		b := NewBuilderWindow(DefaultMaxWindow)
		for it := 0; it < 6; it++ {
			b.Append(mleaf(rank, n, mpi.OpSend, 1, RelParam(1), 7, 512, comp+float64(it)))
			b.Append(mleaf(rank, n, mpi.OpRecv, 2, RelParam(n-1), 7, 512, 0.5))
		}
		b.Append(mleaf(rank, n, mpi.OpSend, 3, AbsParam(0), 9, 64, comp/3))
		return b.Seq()
	}
	edge := func(rank int) []Node {
		return []Node{mleaf(rank, n, mpi.OpSend, 4, AbsParam((rank+5)%n), 1, 8, 0.1*float64(rank)), mleaf(rank, n, mpi.OpBarrier, 5, NoParam, 0, 0, 2.5)}
	}
	// Ranks 0,3,6,9 name one ring sequence and 1,4,7,10 another of the same
	// shape: one group, folded in rank order across the two. Rank 8 brings a
	// private ring; 2 and 5 share an edge sequence that private rank 11
	// joins with a peer of its own.
	shared := [][]Node{ring(0, 1.1), ring(1, 2.3), edge(2)}
	build := func(private bool) [][]Node {
		seqs := make([][]Node, n)
		for r := range seqs {
			switch {
			case r == 8:
				seqs[r] = ring(r, 0.7)
			case r == 11:
				seqs[r] = edge(r)
			case r == 2 || r == 5:
				seqs[r] = shared[2]
			default:
				seqs[r] = shared[r%3]
			}
			if private {
				seqs[r] = cloneSeq(seqs[r])
			}
		}
		return seqs
	}
	before := encodeTrace(t, &Trace{N: n, Comms: worldComms(n), Groups: []Group{{Seq: shared[0]}, {Seq: shared[1]}, {Seq: shared[2]}}})

	want := encodeTrace(t, MergeRankSeqsOwned(n, worldComms(n), build(true)))
	if legacy := encodeTrace(t, mergeRankSeqsLegacy(n, worldComms(n), build(true))); legacy != want {
		t.Fatalf("premise: merge of private copies diverges from legacy\nlegacy:\n%s\nmerge:\n%s", legacy, want)
	}
	merged := MergeRankSeqsOwned(n, worldComms(n), build(false))
	if got := encodeTrace(t, merged); got != want {
		t.Fatalf("merge of shared sequences diverges from the merge of private copies\nprivate:\n%s\nshared:\n%s", want, got)
	}
	if len(merged.Groups) != 2 {
		t.Fatalf("%d groups, want the ring ranks and the edge ranks", len(merged.Groups))
	}

	inShared := map[Node]bool{}
	var collect func(seq []Node, visit func(Node))
	collect = func(seq []Node, visit func(Node)) {
		for _, node := range seq {
			visit(node)
			if lp, ok := node.(*Loop); ok {
				collect(lp.Body, visit)
			}
		}
	}
	for _, seq := range shared {
		collect(seq, func(node Node) { inShared[node] = true })
	}
	for _, g := range merged.Groups {
		collect(g.Seq, func(node Node) {
			if inShared[node] {
				t.Fatalf("group %s reaches a node of a shared sequence: %v", g.Ranks, node)
			}
		})
	}
	if after := encodeTrace(t, &Trace{N: n, Comms: worldComms(n), Groups: []Group{{Seq: shared[0]}, {Seq: shared[1]}, {Seq: shared[2]}}}); after != before {
		t.Fatalf("the merge changed a shared sequence\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// refBuilder is the pre-index exhaustive probe loop, kept verbatim as the
// reference for the Builder's hash-index fold.
type refBuilder struct {
	seq       []Node
	maxWindow int
}

func (b *refBuilder) Append(n Node) {
	b.seq = append(b.seq, n)
	for b.foldOnce() {
	}
}

func (b *refBuilder) foldOnce() bool {
	L := len(b.seq)
	if L < 2 {
		return false
	}
	lastHash := b.seq[L-1].Hash()
	for w := 1; w <= b.maxWindow; w++ {
		if L-1-w >= 0 {
			if lp, ok := b.seq[L-1-w].(*Loop); ok && len(lp.Body) == w {
				if lp.Body[w-1].Hash() == lastHash && refWindowsEqual(lp.Body, b.seq[L-w:]) {
					for i := range lp.Body {
						absorb(lp.Body[i], b.seq[L-w+i])
					}
					lp.Iters++
					lp.invalidate()
					b.seq = b.seq[:L-w]
					return true
				}
			}
		}
		if 2*w <= L && b.seq[L-1-w].Hash() == lastHash &&
			refWindowsEqual(b.seq[L-2*w:L-w], b.seq[L-w:]) {
			body := make([]Node, w)
			copy(body, b.seq[L-2*w:L-w])
			for i := range body {
				demoteFirstIteration(body[i])
				absorb(body[i], b.seq[L-w+i])
			}
			loop := &Loop{Iters: 2, Body: body}
			b.seq = append(b.seq[:L-2*w], loop)
			return true
		}
	}
	return false
}

func refWindowsEqual(a, c []Node) bool {
	for i := range a {
		if a[i].Hash() != c[i].Hash() || !StructEqual(a[i], c[i]) {
			return false
		}
	}
	return true
}

// builderStreams yields deterministic event streams with heavy repetition:
// repeated blocks, nested phases and partial repeats that force the folder
// through every case. emit is called once per leaf; the stream function must
// be pure so reference and indexed builders see identical fresh leaves.
func builderStreams() map[string]func(emit func(*RSD)) {
	leaf := func(op mpi.Op, site uint64, peer Param, tag, size int, comp float64) *RSD {
		r := &RSD{Op: op, Site: site, Ranks: taskset.Of(0), CommID: 0, CommSize: 8,
			Peer: peer, Tag: tag, Size: size, Root: -1}
		r.SetComputeSample(comp)
		return r
	}
	return map[string]func(emit func(*RSD)){
		"flat-repeat": func(emit func(*RSD)) {
			for i := 0; i < 64; i++ {
				emit(leaf(mpi.OpSend, 1, AbsParam(1), 0, 8, float64(i)))
			}
		},
		"block-repeat": func(emit func(*RSD)) {
			for i := 0; i < 40; i++ {
				emit(leaf(mpi.OpSend, 1, AbsParam(1), 0, 8, 1.0))
				emit(leaf(mpi.OpRecv, 2, AbsParam(7), 0, 8, 2.0))
				emit(leaf(mpi.OpBarrier, 3, NoParam, 0, 0, 3.0))
			}
		},
		"nested-phases": func(emit func(*RSD)) {
			for o := 0; o < 6; o++ {
				for i := 0; i < 5; i++ {
					emit(leaf(mpi.OpIsend, 4, AbsParam(2), 1, 128, 1.0))
					emit(leaf(mpi.OpWait, 5, NoParam, 0, 0, 0.5))
				}
				emit(leaf(mpi.OpAllreduce, 6, NoParam, 0, 8, 9.0))
			}
		},
		"partial-repeats": func(emit func(*RSD)) {
			// LCG-driven mix of a small alphabet: produces near-repeats,
			// interrupted loops and varying window sizes.
			state := uint64(0x2545F4914F6CDD1D)
			next := func(mod int) int {
				state = state*6364136223846793005 + 1442695040888963407
				return int((state >> 33) % uint64(mod))
			}
			for i := 0; i < 300; i++ {
				switch next(5) {
				case 0:
					emit(leaf(mpi.OpSend, 10, AbsParam(1), 0, 8, 1.0))
				case 1:
					emit(leaf(mpi.OpRecv, 11, AbsParam(3), 0, 8, 1.0))
				case 2:
					emit(leaf(mpi.OpSend, 10, AbsParam(1), 0, 16, 1.0))
				case 3:
					emit(leaf(mpi.OpBarrier, 12, NoParam, 0, 0, 1.0))
				case 4:
					emit(leaf(mpi.OpBcast, 13, NoParam, 0, 32, 1.0))
				}
			}
		},
		"long-window": func(emit func(*RSD)) {
			// A 31-leaf phase repeated: exercises wide fold windows.
			for rep := 0; rep < 8; rep++ {
				for i := 0; i < 31; i++ {
					emit(leaf(mpi.OpSend, uint64(100+i), AbsParam(i%8), i, 8*i, float64(i)))
				}
			}
		},
	}
}

// TestBuilderFoldMatchesExhaustive asserts the hash-index fold produces the
// same compressed sequence (structure, iteration counts and pooled
// histograms) as the exhaustive probe loop on every stream shape.
func TestBuilderFoldMatchesExhaustive(t *testing.T) {
	for name, stream := range builderStreams() {
		t.Run(name, func(t *testing.T) {
			for _, window := range []int{1, 2, 4, 8, DefaultMaxWindow} {
				ref := &refBuilder{maxWindow: window}
				stream(func(r *RSD) { ref.Append(r) })
				idx := NewBuilderWindow(window)
				stream(func(r *RSD) { idx.Append(r) })

				want := encodeTrace(t, &Trace{N: 1, Comms: map[int][]int{0: {0}},
					Groups: []Group{{Ranks: taskset.Of(0), Seq: ref.seq}}})
				got := encodeTrace(t, &Trace{N: 1, Comms: map[int][]int{0: {0}},
					Groups: []Group{{Ranks: taskset.Of(0), Seq: idx.Seq()}}})
				if got != want {
					t.Fatalf("window=%d: indexed fold diverges from exhaustive probe\nref:\n%s\nindexed:\n%s", window, want, got)
				}
			}
		})
	}
}
