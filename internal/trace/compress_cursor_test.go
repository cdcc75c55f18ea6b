package trace

import (
	"fmt"
	"math"
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
		text, err := h.MarshalText()
		if err != nil {
			return err.Error()
		}
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
// is fed the way rankTracer feeds it, every leaf from its NewLeaf.
func checkCursor(t *testing.T, data []byte) {
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
	got := build((*Builder).Append)
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || got[i] != want[i] {
			t.Fatalf("window %d, global %v, data %x: cursor diverges from the indexed path at line %d\nindexed:\n%s\ncursor:\n%s",
				window, global, data, i, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
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
}

// FuzzBuilderCursor holds Append, with its pending-iteration cursor, to the
// indexed path alone (appendIndexed) on streams of planted repeats: equal
// structure, rank sets and compute histograms, bit for bit.
func FuzzBuilderCursor(f *testing.F) {
	for _, seed := range cursorSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkCursor)
}

// TestBuilderCursorMatchesIndexed runs checkCursor on 3,000 pseudo-random
// programs, every window and both builders.
func TestBuilderCursorMatchesIndexed(t *testing.T) {
	state := uint64(0x9E3779B97F4A7C15)
	data := make([]byte, 48)
	for range 3000 {
		for i := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[i] = byte(state >> 56)
		}
		checkCursor(t, data)
	}
}
