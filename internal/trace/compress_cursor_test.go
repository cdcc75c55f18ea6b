package trace

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/taskset"
)

// appendIndexed is Append as it was before the pending-iteration cursor, kept
// as the reference the cursor is held to: every node goes into the tail index
// and the tail is folded through it. A builder fed only through it never arms
// the cursor.
func (b *Builder) appendIndexed(n Node) {
	b.seq = append(b.seq, n)
	b.index(len(b.seq)-1, n)
	for b.foldOnce() {
	}
	b.maybePrune()
}

// cursorWindows are the fold windows FuzzBuilderCursor draws from: the two
// smallest that fold a pair, one a loop body of a kernel fits in, and the
// default.
var cursorWindows = [...]int{2, 3, 8, DefaultMaxWindow}

// cursorConfig reads the builder FuzzBuilderCursor's data asks for from its
// first byte: the window (cursorWindows) and, with bit 2, a rank-sensitive
// global builder instead of a stream builder.
func cursorConfig(data []byte) (window int, global bool) {
	if len(data) == 0 {
		return cursorWindows[0], false
	}
	return cursorWindows[data[0]%4], data[0]&4 != 0
}

// cursorStream decodes a program of planted shapes and calls emit with each
// node: single leaves, blocks repeated (nested up to three deep), peeled
// partial iterations (a block repeated, then a prefix of it), loop bodies
// holding a square, and loops — whole Loop nodes for a global builder, two
// of them equal and adjacent, runs of a block split by one leaf for a stream
// builder. A global builder's leaves carry rank 0 or 1. Every call builds
// fresh nodes, so two builders fed the same data never share one.
func cursorStream(data []byte, global bool, emit func(Node)) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	events := 0
	newLeaf := func(sym int) *RSD {
		events++
		op := [...]mpi.Op{mpi.OpSend, mpi.OpRecv, mpi.OpIsend, mpi.OpWait, mpi.OpBarrier, mpi.OpAllreduce}[sym%6]
		r := &RSD{Op: op, Site: uint64(sym % 6), Ranks: taskset.Of(0), CommSize: 8, Peer: AbsParam(sym % 3), Size: 8 * (sym % 6), Root: -1}
		if global {
			r.Ranks = taskset.Of(sym / 6 % 2)
		}
		r.SetComputeSample(float64((sym%6 + 1) << (events % 4)))
		return r
	}
	leaves := func(block []int) {
		for _, sym := range block {
			emit(newLeaf(sym))
		}
	}
	var blockOf func(depth int) []int
	blockOf = func(depth int) []int {
		var block []int
		for range 1 + next()%4 {
			c := next()
			if c%4 != 0 || depth == 2 {
				block = append(block, c>>2)
				continue
			}
			sub := blockOf(depth + 1)
			for range 2 + next()%3 {
				block = append(block, sub...)
			}
		}
		return block
	}
	for len(data) > 0 && events < 3000 {
		switch next() % 5 {
		case 0:
			emit(newLeaf(next()))
		case 1:
			block := blockOf(0)
			for range 2 + next()%4 {
				leaves(block)
			}
		case 2:
			block := blockOf(0)
			for range 1 + next()%3 {
				leaves(block)
			}
			leaves(block[:next()%len(block)])
		case 3:
			block, iters := blockOf(0), 2+next()%3
			for range 1 + next()%2 {
				if !global {
					for range iters {
						leaves(block)
					}
					emit(newLeaf(next()))
					continue
				}
				body := make([]Node, len(block))
				for i, sym := range block {
					body[i] = newLeaf(sym)
				}
				emit(&Loop{Iters: iters, Body: body})
			}
		case 4:
			block, sep := blockOf(0), next()
			for range 2 + next()%4 {
				leaves(block)
				leaves(block)
				emit(newLeaf(sep))
			}
		}
	}
}

// dumpSeq renders seq one node per line: structure, rank sets, and both
// compute histograms as text and as the bit patterns of their moments.
func dumpSeq(seq []Node) []string {
	var lines []string
	hist := func(h *stats.Histogram) string {
		if h == nil {
			return "-"
		}
		text := h.Append(nil)
		return fmt.Sprintf("%s/%x/%x/%x", text, math.Float64bits(h.Sum), math.Float64bits(h.Min), math.Float64bits(h.Max))
	}
	var walk func(indent string, seq []Node)
	walk = func(indent string, seq []Node) {
		for _, n := range seq {
			switch x := n.(type) {
			case *RSD:
				lines = append(lines, fmt.Sprintf("%s%v site=%d compute=%s first=%s", indent, x, x.Site, hist(x.ComputeStats()), hist(x.FirstCompute)))
			case *Loop:
				lines = append(lines, indent+x.String())
				walk(indent+"  ", x.Body)
			}
		}
	}
	walk("", seq)
	return lines
}

// checkCursor feeds the stream data encodes to a builder through Append and
// to one through appendIndexed and requires equal sequences. A stream builder
// is fed the way rankTracer feeds it, every leaf from its NewLeaf. It returns
// how many appends the cursor took inside a nested loop of the tail loop.
func checkCursor(t *testing.T, data []byte) (nested int) {
	t.Helper()
	window, global := cursorConfig(data)
	build := func(appendTo func(*Builder, Node)) []string {
		b := NewStreamBuilder(window)
		if global {
			b = NewGlobalBuilder(window)
		}
		cursorStream(data[min(1, len(data)):], global, func(n Node) {
			if r, ok := n.(*RSD); ok && b.recycle {
				l := b.NewLeaf()
				*l = *r
				n = l
			}
			appendTo(b, n)
		})
		return dumpSeq(b.Seq())
	}
	want := build((*Builder).appendIndexed)
	got := build(func(b *Builder, n Node) {
		inside := len(b.frames) > 0
		if inside {
			f := b.frames[len(b.frames)-1]
			_, descends := f.loop.Body[f.k].(*Loop)
			inside = len(b.frames) > 1 || descends
		}
		before := b.cursorAppends
		if b.Append(n); inside && b.cursorAppends > before {
			nested++
		}
	})
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || got[i] != want[i] {
			t.Fatalf("window %d, global %v, data %x: cursor diverges from the indexed path at line %d\nindexed:\n%s\ncursor:\n%s",
				window, global, data, i, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
	return nested
}

// cursorSeeds are FuzzBuilderCursor's seeds: one of each planted shape, in
// both builders.
var cursorSeeds = [][]byte{
	// Stream, default window: three iterations of {a;b;c}, then a;b, then d.
	{3, 2, 2, 5, 9, 13, 2, 2, 0, 17},
	// Stream, window 8: blocks nested three deep, repeated.
	{2, 1, 3, 0, 1, 0, 1, 5, 2, 9, 1, 13, 3, 1, 2, 1, 0, 5},
	// Stream, window 3: {a;a;x} five times.
	{1, 4, 0, 5, 9, 3},
	// Global, default window: two equal adjacent loops of {a;b}, then
	// {a;b} leaf by leaf, three times.
	{7, 3, 1, 5, 9, 0, 1, 1, 1, 5, 9, 1},
	// Global: a loop whose body {a;a;x} holds a square, then its leaves.
	{7, 3, 2, 5, 5, 9, 0, 0, 1, 2, 5, 5, 9, 0},
	// Global, ranks 0 and 1 alternating: a peeled iteration.
	{6, 2, 1, 5, 29, 1, 1, 0, 33},
	// Stream, window 8, found by the fuzzer: {r; {a;c}x2; a} repeated. The
	// window that folds holds the tail loop {a;c} and the leaf a after it.
	[]byte("2071110271018000"),
	// Stream, default window, lu's shape: {{a;b;{c}x2;{d}x2}x3; e}x5, e an
	// Allreduce. From the third outer iteration on the cursor follows the
	// inner loop and the two-iteration loops nested in it.
	luShape,
	// Then the same block with {c}x3 in its inner body, twice: the cursor
	// falls off at the third c, inside the first nested iteration.
	append(slices.Clip(luShape), 1, 1, 0, 3, 1, 5, 0, 0, 9, 1, 0, 0, 13, 0, 1, 21, 0),
	// Global, default window: {{a;a;x}x3; y} twice as loops and leaves, then
	// leaf by leaf: the nested body holds the square a;a.
	{7, 3, 2, 1, 1, 9, 1, 0, 0, 4, 3, 2, 1, 1, 9, 1, 0, 0, 4,
		1, 1, 0, 2, 1, 1, 9, 1, 17, 0},
}

// luShape is the program of FuzzBuilderCursor's seed of lu's loop nest.
var luShape = []byte{3, 1, 1, 0, 3, 1, 5, 0, 0, 9, 0, 0, 0, 13, 0, 1, 21, 3}

// TestBuilderCursorHandBuiltNests holds Append to appendIndexed on tails the
// stream programs cannot plant, each breaking one rule of nests or innerNear:
// a loop before the tail loop whose body ends in a partial loop of the tail's
// nest, a nested body that is a lone loop, a nested loop of one iteration,
// and a node of the tail's body equal to one under its nested loop. The
// nodes go to a global builder, whose appends may be loops.
func TestBuilderCursorHandBuiltNests(t *testing.T) {
	a, b, c := func() Node { return squareLeaf(0) }, func() Node { return squareLeaf(2) }, func() Node { return squareLeaf(4) }
	loop := func(iters int, body ...Node) Node { return &Loop{Iters: iters, Body: body} }
	repeat := func(n int, leaf func() Node) (out []Node) {
		for range n {
			out = append(out, leaf())
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		nodes func() []Node
	}{
		{"a partial loop ends a loop's body before the tail", func() []Node {
			tail := func() Node { return loop(2, loop(5, a()), b()) }
			return append([]Node{loop(2, tail(), loop(3, a())), tail()}, append(repeat(5, a), b())...)
		}},
		{"a lone loop", func() []Node {
			nodes := []Node{loop(2, loop(2, loop(3, a(), b())), c())}
			for range 6 {
				nodes = append(nodes, a(), b())
			}
			return append(nodes, c())
		}},
		{"one iteration", func() []Node {
			return []Node{loop(2, loop(1, a()), b()), a(), b(), a(), b()}
		}},
		{"a body node equal to an inner one", func() []Node {
			return append([]Node{loop(2, a(), loop(2, a()))}, repeat(6, a)...)
		}},
	} {
		var seqs [2][]string
		for i, appendTo := range []func(*Builder, Node){(*Builder).appendIndexed, (*Builder).Append} {
			bld := NewGlobalBuilder(DefaultMaxWindow)
			for _, n := range tc.nodes() {
				appendTo(bld, n)
			}
			seqs[i] = dumpSeq(bld.Seq())
		}
		if want, got := strings.Join(seqs[0], "\n"), strings.Join(seqs[1], "\n"); got != want {
			t.Errorf("%s: cursor diverges from the indexed path\nindexed:\n%s\ncursor:\n%s", tc.name, want, got)
		}
	}
}

// FuzzBuilderCursor holds Append, with its pending-iteration cursor, to the
// indexed path alone (appendIndexed) on streams of planted repeats: equal
// structure, rank sets and compute histograms, bit for bit.
func FuzzBuilderCursor(f *testing.F) {
	for _, seed := range cursorSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCursor(t, data) })
}

// TestBuilderCursorMatchesIndexed runs checkCursor on 3,000 pseudo-random
// programs, every window and both builders, and requires the cursor to have
// taken at least minNested appends inside nested loops: a rule that never
// let it enter one would pass the comparison untested.
func TestBuilderCursorMatchesIndexed(t *testing.T) {
	const minNested = 10000
	state := uint64(0x9E3779B97F4A7C15)
	data := make([]byte, 48)
	nested := 0
	for range 3000 {
		for i := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[i] = byte(state >> 56)
		}
		nested += checkCursor(t, data)
	}
	if nested < minNested {
		t.Fatalf("the cursor took %d appends inside nested loops, want at least %d", nested, minNested)
	}
}
