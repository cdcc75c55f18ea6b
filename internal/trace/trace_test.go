package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
)

func leaf(op mpi.Op, site uint64, peer Param, size int) *RSD {
	return &RSD{Op: op, Site: site, Ranks: taskset.Of(0), CommID: 0, CommSize: 4,
		Peer: peer, Size: size, Root: -1}
}

func expand(seq []Node, rank int) []*RSD {
	var out []*RSD
	for c := NewCursor(seq, rank); !c.Done(); c.Advance() {
		out = append(out, c.Cur())
	}
	return out
}

func TestBuilderFoldsSimpleLoop(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 1000; i++ {
		b.Append(leaf(mpi.OpIrecv, 1, RelParam(3), 64))
		b.Append(leaf(mpi.OpIsend, 2, RelParam(1), 64))
		b.Append(leaf(mpi.OpWaitall, 3, NoParam, 2))
	}
	if b.Len() != 1 {
		t.Fatalf("compressed length = %d, want 1 loop; seq=%v", b.Len(), b.Seq())
	}
	lp, ok := b.Seq()[0].(*Loop)
	if !ok {
		t.Fatalf("top node is %T, want *Loop", b.Seq()[0])
	}
	if lp.Iters != 1000 || len(lp.Body) != 3 {
		t.Fatalf("loop = %d x %d, want 1000 x 3", lp.Iters, len(lp.Body))
	}
}

func TestBuilderFoldsNestedLoops(t *testing.T) {
	b := NewBuilder()
	for outer := 0; outer < 50; outer++ {
		for inner := 0; inner < 20; inner++ {
			b.Append(leaf(mpi.OpSend, 10, AbsParam(0), 8))
		}
		b.Append(leaf(mpi.OpBarrier, 11, NoParam, 0))
	}
	// Expect loop{50, [loop{20,[Send]}, Barrier]}.
	if b.Len() != 1 {
		t.Fatalf("compressed length = %d, want 1", b.Len())
	}
	outer := b.Seq()[0].(*Loop)
	if outer.Iters != 50 || len(outer.Body) != 2 {
		t.Fatalf("outer loop = %d x %d", outer.Iters, len(outer.Body))
	}
	inner, ok := outer.Body[0].(*Loop)
	if !ok || inner.Iters != 20 {
		t.Fatalf("inner loop wrong: %v", outer.Body[0])
	}
}

func TestBuilderKeepsDistinctEvents(t *testing.T) {
	b := NewBuilder()
	b.Append(leaf(mpi.OpSend, 1, AbsParam(1), 100))
	b.Append(leaf(mpi.OpSend, 1, AbsParam(2), 100)) // different peer
	b.Append(leaf(mpi.OpSend, 1, AbsParam(1), 200)) // different size
	if b.Len() != 3 {
		t.Fatalf("unrelated events folded: len=%d", b.Len())
	}
}

func TestBuilderPoolsComputeTimes(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		r := leaf(mpi.OpSend, 1, AbsParam(1), 8)
		r.SetComputeSample(float64(100 + i))
		b.Append(r)
	}
	lp := b.Seq()[0].(*Loop)
	leaf := lp.Body[0].(*RSD)
	h := leaf.ComputeStats()
	// The first iteration's sample (100) lives in the first-iteration pool;
	// the steady-state pool holds the remaining nine.
	if h.Count != 9 {
		t.Fatalf("pooled %d steady samples, want 9", h.Count)
	}
	if h.Mean() != 105 { // mean of 101..109
		t.Fatalf("steady mean = %v, want 105", h.Mean())
	}
	if leaf.FirstCompute == nil || leaf.FirstCompute.Count != 1 {
		t.Fatalf("first-iteration pool = %v, want 1 sample", leaf.FirstCompute)
	}
	if leaf.FirstComputeMean() != 100 {
		t.Fatalf("first mean = %v, want 100", leaf.FirstComputeMean())
	}
}

func TestBuilderWindowDisablesFolding(t *testing.T) {
	b := NewBuilderWindow(0)
	for i := 0; i < 100; i++ {
		b.Append(leaf(mpi.OpSend, 1, AbsParam(1), 8))
	}
	if b.Len() != 100 {
		t.Fatalf("window 0 still folded: len=%d", b.Len())
	}
}

func TestCompressionIsLossless(t *testing.T) {
	// Property: compressing an arbitrary event stream and expanding it with
	// a cursor reproduces exactly the original sequence.
	f := func(opsRaw []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		var original []RSD
		for _, raw := range opsRaw {
			// A small alphabet of event shapes encourages folding; the
			// stream also includes random runs to trigger loop detection.
			kind := int(raw % 5)
			repeat := 1
			if raw%7 == 0 {
				repeat = rng.Intn(5) + 1
			}
			for k := 0; k < repeat; k++ {
				r := leaf(mpi.OpSend, uint64(kind+1), AbsParam(kind), 8*(kind+1))
				original = append(original, *r)
				b.Append(r)
			}
		}
		got := expand(b.Seq(), 0)
		if len(got) != len(original) {
			return false
		}
		for i := range got {
			o := original[i]
			if got[i].Op != o.Op || got[i].Site != o.Site ||
				got[i].Peer != o.Peer || got[i].Size != o.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorSkipsOtherRanks(t *testing.T) {
	seq := []Node{
		&RSD{Op: mpi.OpSend, Ranks: taskset.Of(0, 1), Peer: AbsParam(2), Root: -1},
		&RSD{Op: mpi.OpRecv, Ranks: taskset.Of(2), Peer: AbsParam(0), Root: -1},
		&Loop{Iters: 3, Body: []Node{
			&RSD{Op: mpi.OpBarrier, Ranks: taskset.Of(0, 1, 2), Root: -1},
			&RSD{Op: mpi.OpIsend, Ranks: taskset.Of(1), Peer: AbsParam(0), Root: -1},
		}},
	}
	if got := len(expand(seq, 0)); got != 4 { // Send + 3 barriers
		t.Fatalf("rank 0 sees %d events, want 4", got)
	}
	if got := len(expand(seq, 1)); got != 7 { // Send + 3*(barrier+isend)
		t.Fatalf("rank 1 sees %d events, want 7", got)
	}
	if got := len(expand(seq, 2)); got != 4 { // Recv + 3 barriers
		t.Fatalf("rank 2 sees %d events, want 4", got)
	}
	if got := len(expand(seq, 9)); got != 0 {
		t.Fatalf("non-participant sees %d events", got)
	}
}

func TestCursorIndexAndDepth(t *testing.T) {
	seq := []Node{
		&RSD{Op: mpi.OpInit, Ranks: taskset.Of(0), Root: -1},
		&Loop{Iters: 2, Body: []Node{
			&RSD{Op: mpi.OpSend, Ranks: taskset.Of(0), Peer: AbsParam(1), Root: -1},
		}},
	}
	c := NewCursor(seq, 0)
	if c.Index() != 0 {
		t.Fatalf("initial index = %d", c.Index())
	}
	c.Advance()
	if c.Index() != 1 {
		t.Fatalf("in-loop index = %d", c.Index())
	}
	c.Advance()
	c.Advance()
	if !c.Done() {
		t.Fatal("cursor should be exhausted")
	}
	c.Advance() // advancing a done cursor is a no-op
	if !c.Done() {
		t.Fatal("done cursor revived")
	}
}

// collectTrace runs body under the Collector and returns the merged trace.
func collectTrace(t *testing.T, n int, body func(*mpi.Rank)) *Trace {
	t.Helper()
	col := NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

func TestCollectorRingMergesToOneGroup(t *testing.T) {
	// The canonical ScalaTrace example (Figure 2): a ring of sends merges
	// into one group with a rank-relative peer, regardless of rank count.
	n := 16
	tr := collectTrace(t, n, func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 100; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 1024)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 1024)
			r.Waitall(rq, sq)
		}
	})
	if len(tr.Groups) != 1 {
		t.Fatalf("groups = %d, want 1:\n%s", len(tr.Groups), tr)
	}
	g := tr.Groups[0]
	if g.Ranks.Size() != n {
		t.Fatalf("group covers %d ranks, want %d", g.Ranks.Size(), n)
	}
	// Find the Isend leaf; its peer must be rel+1.
	found := false
	var walk func(seq []Node)
	walk = func(seq []Node) {
		for _, nd := range seq {
			switch x := nd.(type) {
			case *RSD:
				if x.Op == mpi.OpIsend {
					found = true
					if x.Peer != RelParam(1) {
						t.Fatalf("Isend peer = %v, want rel+1", x.Peer)
					}
				}
			case *Loop:
				if x.Iters != 100 {
					t.Fatalf("loop iters = %d, want 100", x.Iters)
				}
				walk(x.Body)
			}
		}
	}
	walk(g.Seq)
	if !found {
		t.Fatal("no Isend leaf found")
	}
	// Trace size must be small: a handful of nodes for 1600 events/rank.
	if tr.NodeCount() > 10 {
		t.Fatalf("node count = %d, want <= 10:\n%s", tr.NodeCount(), tr)
	}
	if tr.TotalEvents() != n*(100*3+2) { // 3 calls/iter + init + finalize
		t.Fatalf("total events = %d", tr.TotalEvents())
	}
}

func TestCollectorTraceSizeIndependentOfRankCount(t *testing.T) {
	body := func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		for i := 0; i < 10; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 64)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 64)
			r.Waitall(rq, sq)
			r.Allreduce(c, 8)
		}
	}
	small := collectTrace(t, 4, body)
	large := collectTrace(t, 64, body)
	if small.NodeCount() != large.NodeCount() {
		t.Fatalf("trace size grew with ranks: %d -> %d", small.NodeCount(), large.NodeCount())
	}
	if len(large.Groups) != 1 {
		t.Fatalf("SPMD program split into %d groups", len(large.Groups))
	}
}

func TestCollectorSeparatesBehaviourGroups(t *testing.T) {
	// Master/worker: rank 0 behaves differently from the rest.
	n := 8
	tr := collectTrace(t, n, func(r *mpi.Rank) {
		c := r.World()
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(c, mpi.AnySource, 0, 256)
			}
		} else {
			r.Send(c, 0, 0, 256)
		}
	})
	if len(tr.Groups) != 2 {
		t.Fatalf("groups = %d, want 2:\n%s", len(tr.Groups), tr)
	}
	if !tr.Groups[0].Ranks.Equal(taskset.Of(0)) {
		t.Fatalf("first group = %v, want {0}", tr.Groups[0].Ranks)
	}
	if tr.Groups[1].Ranks.Size() != n-1 {
		t.Fatalf("worker group size = %d", tr.Groups[1].Ranks.Size())
	}
	// Workers all send to absolute rank 0.
	var sendPeer Param
	for _, nd := range tr.Groups[1].Seq {
		if x, ok := nd.(*RSD); ok && x.Op == mpi.OpSend {
			sendPeer = x.Peer
		}
	}
	if sendPeer != AbsParam(0) {
		t.Fatalf("worker send peer = %v, want abs0", sendPeer)
	}
	// Rank 0's receives kept the wildcard, as ScalaTrace does.
	foundWild := false
	for _, nd := range tr.Groups[0].Seq {
		if x, ok := nd.(*RSD); ok && x.Op == mpi.OpRecv {
			if !x.Wildcard || x.Peer != AnyParam {
				t.Fatalf("wildcard recv not preserved: %v", x)
			}
			foundWild = true
		}
		if lp, ok := nd.(*Loop); ok {
			for _, b := range lp.Body {
				if x, ok := b.(*RSD); ok && x.Op == mpi.OpRecv && x.Wildcard {
					foundWild = true
				}
			}
		}
	}
	if !foundWild {
		t.Fatal("no wildcard receive recorded")
	}
}

func TestCollectorRecordsSubcommunicators(t *testing.T) {
	n := 8
	tr := collectTrace(t, n, func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, r.Rank())
		r.Allreduce(sub, 8)
	})
	// World + two halves.
	if len(tr.Comms) != 3 {
		t.Fatalf("comm registry has %d entries, want 3: %v", len(tr.Comms), tr.Comms)
	}
	evens := tr.Comms[1]
	odds := tr.Comms[2]
	if len(evens) != 4 || len(odds) != 4 {
		t.Fatalf("subcomm groups = %v / %v", evens, odds)
	}
	if evens[0]%2 != 0 {
		evens, odds = odds, evens
	}
	for i, wr := range evens {
		if wr != 2*i {
			t.Fatalf("even subcomm = %v", evens)
		}
	}
	// WorldRankOf translation.
	if wr, ok := tr.WorldRankOf(tr.commIDFor(1), 1); ok && wr%2 != 0 && wr%2 != 1 {
		t.Fatalf("WorldRankOf gave %d", wr)
	}
}

// commIDFor is a tiny helper for the test above (IDs are deterministic but
// we avoid hard-coding the even/odd assignment).
func (t *Trace) commIDFor(id int) int { return id }

func TestComputeTimesSurviveMerge(t *testing.T) {
	n := 4
	tr := collectTrace(t, n, func(r *mpi.Rank) {
		for i := 0; i < 5; i++ {
			r.Compute(100)
			r.Barrier(r.World())
		}
	})
	var barrier *RSD
	var walk func(seq []Node)
	walk = func(seq []Node) {
		for _, nd := range seq {
			switch x := nd.(type) {
			case *RSD:
				if x.Op == mpi.OpBarrier {
					barrier = x
				}
			case *Loop:
				walk(x.Body)
			}
		}
	}
	for _, g := range tr.Groups {
		walk(g.Seq)
	}
	if barrier == nil {
		t.Fatal("no barrier leaf")
	}
	h := barrier.ComputeStats()
	// One sample per rank goes to the first-iteration pool; the rest stay
	// in the steady-state pool.
	if h.Count != uint64(4*n) {
		t.Fatalf("pooled %d steady compute samples, want %d", h.Count, 4*n)
	}
	if barrier.ComputeMean() != 100 {
		t.Fatalf("compute mean = %v, want 100", barrier.ComputeMean())
	}
	if barrier.FirstCompute == nil || barrier.FirstCompute.Count != uint64(n) {
		t.Fatalf("first pool = %v, want %d samples", barrier.FirstCompute, n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	n := 8
	tr := collectTrace(t, n, func(r *mpi.Rank) {
		c := r.World()
		sub := r.CommSplit(c, r.Rank()%2, 0)
		for i := 0; i < 20; i++ {
			r.Compute(50)
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 3, 512)
			sq := r.Isend(c, (r.Rank()+1)%n, 3, 512)
			r.Waitall(rq, sq)
		}
		r.Allreduce(sub, 16)
		counts := []int{1, 2, 3, 4}
		r.Alltoallv(sub, counts)
	})

	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.N != tr.N || len(back.Groups) != len(tr.Groups) || len(back.Comms) != len(tr.Comms) {
		t.Fatalf("shape mismatch after round trip")
	}
	if back.NodeCount() != tr.NodeCount() || back.TotalEvents() != tr.TotalEvents() {
		t.Fatalf("size mismatch: nodes %d vs %d, events %d vs %d",
			back.NodeCount(), tr.NodeCount(), back.TotalEvents(), tr.TotalEvents())
	}
	// Per-rank expansion must be pairwise structurally identical.
	for rank := 0; rank < n; rank++ {
		a := tr.EventsOf(rank)
		b := back.EventsOf(rank)
		if len(a) != len(b) {
			t.Fatalf("rank %d: %d vs %d events", rank, len(a), len(b))
		}
		for i := range a {
			if !rsdStructEqual(stripRanks(a[i]), stripRanks(b[i])) {
				t.Fatalf("rank %d event %d differs:\n%v\n%v", rank, i, a[i], b[i])
			}
		}
	}
}

// stripRanks copies an RSD without its rank set for structural comparison.
func stripRanks(r *RSD) *RSD {
	c := *r
	c.Ranks = taskset.Set{}
	return &c
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"bogus",
		"scalatrace-go 99\nnprocs 2\ncomms 0\ngroups 0\n",
		"scalatrace-go 1\nnprocs x\n",
		"scalatrace-go 1\nnprocs 2\ncomms 1\ncomm a b\n",
		"scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\nwat\n",
		"scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\nrsd op=NoSuchOp\n",
	}
	for _, in := range bad {
		if _, err := Decode(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestParamResolve(t *testing.T) {
	if got := RelParam(1).Resolve(7, 8); got != 0 {
		t.Fatalf("rel+1 at rank 7 of 8 = %d, want 0 (wraparound)", got)
	}
	if got := RelParam(7).Resolve(0, 8); got != 7 {
		t.Fatalf("rel+7 at rank 0 of 8 = %d, want 7", got)
	}
	if got := AbsParam(3).Resolve(5, 8); got != 3 {
		t.Fatalf("abs3 = %d, want 3", got)
	}
	if got := AnyParam.Resolve(0, 8); got != mpi.AnySource {
		t.Fatalf("any = %d", got)
	}
	if got := NoParam.Resolve(0, 8); got != mpi.NoPeer {
		t.Fatalf("none = %d", got)
	}
}

func TestParamResolveProperty(t *testing.T) {
	// Property: the relative offset recovered during merge resolves back to
	// the original absolute peer for every rank.
	f := func(rankRaw, peerRaw, sizeRaw uint8) bool {
		size := int(sizeRaw%31) + 2
		rank := int(rankRaw) % size
		peer := int(peerRaw) % size
		off := (peer - rank) % size
		if off < 0 {
			off += size
		}
		return RelParam(off).Resolve(rank, size) == peer
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeEventCounts(t *testing.T) {
	l := &Loop{Iters: 4, Body: []Node{
		leaf(mpi.OpSend, 1, AbsParam(0), 8),
		&Loop{Iters: 3, Body: []Node{leaf(mpi.OpRecv, 2, AbsParam(0), 8)}},
	}}
	if got := l.EventCount(); got != 4*(1+3) {
		t.Fatalf("loop EventCount = %d, want 16", got)
	}
	if got := leaf(mpi.OpSend, 1, AbsParam(0), 8).EventCount(); got != 1 {
		t.Fatalf("leaf EventCount = %d, want 1", got)
	}
}

func TestCursorInnermostIter(t *testing.T) {
	seq := []Node{
		leaf(mpi.OpInit, 9, NoParam, 0),
		&Loop{Iters: 3, Body: []Node{leaf(mpi.OpSend, 1, AbsParam(1), 8)}},
	}
	c := NewCursor(seq, 0)
	if c.InnermostIter() != 0 {
		t.Fatalf("top-level iter = %d, want 0", c.InnermostIter())
	}
	var iters []int
	for c.Advance(); !c.Done(); c.Advance() {
		iters = append(iters, c.InnermostIter())
	}
	if len(iters) != 3 || iters[0] != 0 || iters[1] != 1 || iters[2] != 2 {
		t.Fatalf("loop iters observed = %v, want [0 1 2]", iters)
	}
}

func TestComputeMeanAt(t *testing.T) {
	r := leaf(mpi.OpSend, 1, AbsParam(0), 8)
	r.SetComputeSample(10)
	r.demoteToFirst()
	steady := leaf(mpi.OpSend, 1, AbsParam(0), 8)
	steady.SetComputeSample(2)
	r.mergeComputeFrom(steady)
	if got := r.ComputeMeanAt(true); got != 10 {
		t.Fatalf("first mean = %v, want 10", got)
	}
	if got := r.ComputeMeanAt(false); got != 2 {
		t.Fatalf("steady mean = %v, want 2", got)
	}
}

func TestTraceStringRendering(t *testing.T) {
	tr := collectTrace(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, 3, 8)
		} else {
			r.Send(r.World(), 0, 3, 8)
		}
		for i := 0; i < 4; i++ {
			r.Barrier(r.World())
		}
	})
	out := tr.String()
	for _, want := range []string{"trace nprocs=2", "group", "loop 4:", "wildcard", "Barrier"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains((&Loop{Iters: 2}).String(), "loop{2") {
		t.Fatal("Loop String wrong")
	}
}

func TestSetWindowAndGlobalBuilder(t *testing.T) {
	col := NewCollector(2)
	col.SetWindow(0)
	if _, err := mpi.Run(2, netmodel.Ideal(), func(r *mpi.Rank) {
		for i := 0; i < 10; i++ {
			r.Barrier(r.World())
		}
	}, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatal(err)
	}
	// 12 unfolded leaves per merged group (init + 10 barriers + finalize).
	if n := col.Trace().NodeCount(); n != 12 {
		t.Fatalf("window 0 node count = %d, want 12 (unfolded)", n)
	}

	// Rank-sensitive folding refuses to merge equal-structure leaves with
	// different rank sets.
	gb := NewGlobalBuilder(16)
	a := leaf(mpi.OpSend, 1, AbsParam(0), 8)
	b := leaf(mpi.OpSend, 1, AbsParam(0), 8)
	b.Ranks = taskset.Of(1)
	gb.Append(a)
	gb.Append(b)
	if gb.Len() != 2 {
		t.Fatalf("rank-sensitive builder folded different ranks: len=%d", gb.Len())
	}
	// A third leaf identical to b (same ranks) folds with it.
	c := leaf(mpi.OpSend, 1, AbsParam(0), 8)
	c.Ranks = taskset.Of(1)
	gb.Append(c)
	if gb.Len() != 2 {
		t.Fatalf("same-rank leaves did not fold: len=%d", gb.Len())
	}
	lp, ok := gb.Seq()[1].(*Loop)
	if !ok || lp.Iters != 2 {
		t.Fatalf("expected loop{2}, got %v", gb.Seq()[1])
	}
	gb.Append(c.clone().(*RSD))
	if lp.Iters != 3 {
		t.Fatalf("loop not extended: iters=%d", lp.Iters)
	}
}
