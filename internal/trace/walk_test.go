package trace_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mpnet"
	"repro/internal/trace"
)

// refWalk is the reference expansion of rank's events in seq, kept apart
// from the lowering: every leaf holding rank in order, loops unrolled, each
// with whether its innermost enclosing loop is in its first iteration (first
// holds outside every loop).
func refWalk(seq []trace.Node, rank int, first bool, yield func(leaf *trace.RSD, first bool)) {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.RSD:
			if x.Ranks.Contains(rank) {
				yield(x, first)
			}
		case *trace.Loop:
			for i := 0; i < x.Iters && trace.ContainsRank(x, rank); i++ {
				refWalk(x.Body, rank, i == 0, yield)
			}
		}
	}
}

// walkSteps bounds the steps walking rank through seq takes — a leaf is one,
// a loop's iteration one plus its body's — saturating at limit.
func walkSteps(seq []trace.Node, rank, limit int) int {
	n := 0
	for _, node := range seq {
		switch x := node.(type) {
		case *trace.RSD:
			n++
		case *trace.Loop:
			if x.Iters > 0 && trace.ContainsRank(x, rank) {
				body := walkSteps(x.Body, rank, limit) + 1
				n += min(x.Iters, limit/body+1) * body
			}
		}
		if n >= limit {
			return limit
		}
	}
	return n
}

// checkWalk holds every rank's Cursor on t's lowering to refWalk of the
// rank's group: the same leaf by pointer, the same ordinal, and the compute
// sample of the leaf's first-iteration pool exactly where refWalk reports a
// first iteration, its steady-state mean elsewhere, bit for bit.
func checkWalk(t *testing.T, tr *trace.Trace) {
	low := trace.Lower(tr)
	for rank := 0; rank < tr.N; rank++ {
		c, i := low.Cursor(rank), 0
		if g := tr.GroupOf(rank); g != nil {
			refWalk(g.Seq, rank, true, func(leaf *trace.RSD, first bool) {
				want := leaf.ComputeMean()
				if first {
					want = leaf.FirstComputeMean()
				}
				switch {
				case c.Done():
					t.Fatalf("rank %d: cursor done before event %d", rank, i)
				case c.Cur() != leaf || c.Index() != i:
					t.Fatalf("rank %d event %d: cursor at %v (index %d), reference at %v", rank, i, c.Cur(), c.Index(), leaf)
				case math.Float64bits(c.ComputeUS()) != math.Float64bits(want):
					t.Fatalf("rank %d event %d: ComputeUS %v, reference %v (first iteration %v)", rank, i, c.ComputeUS(), want, first)
				}
				c.Advance()
				i++
			})
		}
		if !c.Done() {
			t.Fatalf("rank %d: cursor yields %v past the reference's %d events", rank, c.Cur(), i)
		}
	}
}

// FuzzWalk holds trace.Cursor to the reference expansion on every trace
// Decode accepts whose walk fits under mpnet.DefaultMaxEvents steps (with
// the lowering's ranks-times-nodes cost counted in), seeded with
// FuzzDecode's corpus.
func FuzzWalk(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		budget := mpnet.DefaultMaxEvents
		if budget -= tr.N * (tr.NodeCount() + 1); budget < 0 {
			return
		}
		for rank := 0; rank < tr.N && budget >= 0; rank++ {
			if g := tr.GroupOf(rank); g != nil {
				budget -= walkSteps(g.Seq, rank, budget+1)
			}
		}
		if budget >= 0 {
			checkWalk(t, tr)
		}
	})
}
