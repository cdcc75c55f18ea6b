package trace

import "repro/internal/taskset"

// Pin is one decision about a receive of a rank: its Event — the receive's
// ordinal among the operations the rank's lowered program yields, as
// Cursor.Index counts them and replay issues them — takes its message from
// world rank Source.
type Pin struct {
	Event, Source int
}

// Pinned rebuilds t with every pinned receive naming its source: each rank's
// events become single-rank leaves (CopyFor, with the compute sample its
// Cursor reports, Wildcard cleared), a pinned receive's peer becomes its
// source in the numbering of the receive's communicator, and the per-rank
// streams are recompressed, one after another on one stream builder, and
// re-merged. pins has one list per rank, in ascending Event order. t is not
// modified. This is how Algorithm 2's decisions and an MP-net
// counterexample's choices become a wildcard-free trace.
func Pinned(t *Trace, pins [][]Pin) *Trace {
	seqs := make([][]Node, t.N)
	low := Lower(t)
	b := NewStreamBuilder(DefaultMaxWindow)
	defer b.Recycle()
	for rank := range seqs {
		ranks := taskset.Of(rank)
		next := pins[rank]
		for c := low.Cursor(rank); !c.Done(); c.Advance() {
			rsd := c.Cur()
			leaf := b.NewLeaf()
			rsd.CopyFor(leaf, rank, ranks, t, c.ComputeUS())
			leaf.Wildcard = false
			if len(next) > 0 && next[0].Event == c.Index() {
				src, _ := t.CommRankOf(leaf.CommID, next[0].Source)
				leaf.Peer = AbsParam(src)
				next = next[1:]
			}
			b.Append(leaf)
		}
		// The merge consumes each rank's sequence, a class of one, in place:
		// the builder lets it go with its leaves and keeps its index storage
		// for the next rank.
		seqs[rank] = b.Seq()
		b.Reset(true)
	}
	return MergeClasses(t.N, CloneComms(t.Comms), rankClasses(seqs))
}
