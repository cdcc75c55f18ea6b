package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// This file pins what allocation-free collection relies on: that recycling
// and the sample/rank-set short cuts change no fold decision, that a
// recycled leaf is never still reachable, and that a loop being extended
// allocates nothing.

// traceKernel traces one NPB kernel at class S and returns the collector
// (for its builders) and the merged trace.
func traceKernel(name string, n int) (*Collector, *Trace, error) {
	col := NewCollector(n)
	body := apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS))
	if _, err := mpi.Run(n, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return col, col.Trace(), nil
}

func collectKernel(t *testing.T, name string, n int) (*Collector, *Trace) {
	t.Helper()
	col, tr, err := traceKernel(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return col, tr
}

var costKernels = []string{"bt", "cg", "mg", "lu"}

// TestKernelFoldCounts pins the compressed size and the number of intra-rank
// folds and inter-node member merges of four kernels at 16 ranks — the exact
// counts the benchmark ledger reports — so a changed fold decision fails
// here, not only in the ledger's result digest.
func TestKernelFoldCounts(t *testing.T) {
	want := map[string]struct {
		nodes, events int
		folds, merges int64
	}{
		"bt": {nodes: 62, events: 8256, folds: 304, merges: 14},
		"cg": {nodes: 48, events: 1116, folds: 80, merges: 14},
		"mg": {nodes: 36, events: 1072, folds: 16, merges: 15},
		"lu": {nodes: 456, events: 19360, folds: 3984, merges: 7},
	}
	telemetry.Enable()
	defer telemetry.Disable()
	for _, name := range costKernels {
		folds, merges := ctrFolds.Value(), ctrRSDMerges.Value()
		_, tr := collectKernel(t, name, 16)
		got := want[name]
		got.nodes, got.events = tr.NodeCount(), tr.TotalEvents()
		got.folds, got.merges = ctrFolds.Value()-folds, ctrRSDMerges.Value()-merges
		if got != want[name] {
			t.Errorf("%s@16: nodes/events/folds/merges = %+v, want %+v", name, got, want[name])
		}
	}
}

// TestTracedKernelBytesPerEvent bounds what collection allocates per recorded
// event — the app run, every rank's compression and the merge — at 1.25x
// what it measured once loop iterations were extended through the
// pending-iteration cursor, which pushes no tail-index links for them (it was
// 181.7, 357.3, 556.3 and 163.3 B before; 263, 795, 1337 and 711 B with
// 544-byte histograms and a throwaway one per loop fold). The minimum of
// three runs is taken, so the first run's once-per-process symbolization and
// a stray background allocation cannot fail it.
func TestTracedKernelBytesPerEvent(t *testing.T) {
	measured := map[string]float64{"bt": 159.9, "cg": 344.7, "mg": 556.5, "lu": 162.6}
	for _, name := range costKernels {
		bound := 1.25 * measured[name]
		best, events := math.Inf(1), 0
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, tr := collectKernel(t, name, 16)
			runtime.ReadMemStats(&after)
			events = tr.TotalEvents()
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(events))
		}
		t.Logf("%s@16: %.1f B per event over %d events", name, best, events)
		if best > bound {
			t.Errorf("%s@16: collection allocates %.1f B per event, bound %.1f", name, best, bound)
		}
	}
}

// TestNodeHashIsFNV1a holds the inline hashes to the hash/fnv digest of the
// same words, the definition every recorded fold decision was made under.
func TestNodeHashIsFNV1a(t *testing.T) {
	digest := func(words ...int) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for _, w := range words {
			binary.LittleEndian.PutUint64(buf[:], uint64(w))
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	full := &RSD{Op: mpi.OpAlltoallv, Site: 0xfeedfacecafebeef, CommID: 3, CommSize: 16,
		Peer: RelParam(-1), Wildcard: true, Tag: -7, Size: 1 << 40, Root: -1, NewCommID: 9,
		Counts: []int{4, 0, -2}, Group: []int{5, 6}, PeerVec: []int{1}}
	site := full.Site
	want := digest(int(full.Op), int(site), 3, 16, int(ParamRel), -1, 1, -7, 1<<40, -1, 9, 3, 2, 1,
		4, 0, -2, 5, 6, 1)
	if got := full.Hash(); got != want {
		t.Fatalf("RSD.Hash = %#x, hash/fnv digest = %#x", got, want)
	}
	plain := leaf(mpi.OpSend, 1, AbsParam(1), 8)
	loop := &Loop{Iters: 7, Body: []Node{full, plain}}
	if got, want := loop.Hash(), digest(0x10097, 7, int(full.Hash()), int(plain.Hash())); got != want {
		t.Fatalf("Loop.Hash = %#x, hash/fnv digest = %#x", got, want)
	}
}

// checkNoRecycledLeaf walks everything reachable from the trace and fails if
// a leaf is zeroed (release's mark), appears twice, or sits on a free list.
func checkNoRecycledLeaf(t *testing.T, label string, seqs [][]Node, builders []*Builder) {
	t.Helper()
	free := map[*RSD]bool{}
	for _, b := range builders {
		for _, r := range b.free {
			if r.Op != mpi.OpNone || r.Counts != nil || r.Compute != nil || !r.Ranks.IsEmpty() {
				t.Fatalf("%s: free list holds a leaf that was not zeroed: %v", label, r)
			}
			free[r] = true
		}
	}
	seen := map[*RSD]bool{}
	var walk func(where string, seq []Node)
	walk = func(where string, seq []Node) {
		for i, n := range seq {
			switch x := n.(type) {
			case *RSD:
				at := fmt.Sprintf("%s[%d]", where, i)
				switch {
				case x.Op == mpi.OpNone || x.Ranks.IsEmpty():
					t.Fatalf("%s: zeroed leaf reachable at %s", label, at)
				case free[x]:
					t.Fatalf("%s: leaf at %s is also on a free list", label, at)
				case seen[x]:
					t.Fatalf("%s: leaf at %s is reachable twice", label, at)
				}
				seen[x] = true
			case *Loop:
				walk(fmt.Sprintf("%s[%d].Body", where, i), x.Body)
			}
		}
	}
	for i, seq := range seqs {
		walk(fmt.Sprintf("seq%d", i), seq)
	}
}

func TestRecycledLeavesUnreachableFromTrace(t *testing.T) {
	for _, name := range costKernels {
		col, tr := collectKernel(t, name, 16)
		recycled := 0
		for _, b := range col.builders {
			recycled += len(b.free)
		}
		if recycled == 0 {
			t.Fatalf("%s: no leaf was ever recycled; the test checks nothing", name)
		}
		seqs := make([][]Node, len(tr.Groups))
		for i, g := range tr.Groups {
			seqs[i] = g.Seq
		}
		checkNoRecycledLeaf(t, name, seqs, col.builders)
	}
}

// phaseBreakStream is BenchmarkBuilderAppend's stream: an 8-event phase with
// a break every 512 events, so loops are created, extended, closed and
// nested.
func phaseBreakStream(emit func(*RSD)) {
	for ev := 0; ev < 4096; ev++ {
		i := ev % 8
		if ev%512 == 511 {
			i = 8 + ev%2
		}
		r := &RSD{Op: mpi.OpSend, Site: uint64(i), Ranks: taskset.Of(0), CommSize: 16,
			Peer: AbsParam(i % 16), Tag: i, Size: 64 * i, Root: -1}
		r.SetComputeSample(float64(ev % 7))
		emit(r)
	}
}

// TestRecyclingBuilderMatchesExhaustive feeds every fold-shape stream, and
// the phase-break stream, through a recycling builder the way rankTracer
// does (each leaf taken from NewLeaf) and requires the exhaustive probe
// loop's output, with no recycled leaf left in the result.
func TestRecyclingBuilderMatchesExhaustive(t *testing.T) {
	streams := builderStreams()
	streams["phase-break"] = phaseBreakStream
	for name, stream := range streams {
		for _, window := range []int{1, 4, DefaultMaxWindow} {
			ref := &refBuilder{maxWindow: window}
			stream(func(r *RSD) { ref.Append(r) })
			rec := NewStreamBuilder(window)
			stream(func(r *RSD) {
				l := rec.NewLeaf()
				*l = *r
				rec.Append(l)
			})
			label := fmt.Sprintf("%s/window=%d", name, window)
			checkNoRecycledLeaf(t, label, [][]Node{rec.Seq()}, []*Builder{rec})

			want := encodeTrace(t, &Trace{N: 1, Comms: map[int][]int{0: {0}},
				Groups: []Group{{Ranks: taskset.Of(0), Seq: ref.seq}}})
			got := encodeTrace(t, &Trace{N: 1, Comms: map[int][]int{0: {0}},
				Groups: []Group{{Ranks: taskset.Of(0), Seq: rec.Seq()}}})
			if got != want {
				t.Fatalf("%s: recycling fold diverges from exhaustive probe\nref:\n%s\nrecycling:\n%s", label, want, got)
			}
		}
	}
}

// TestRecordExtendingLoopAllocatesNothing appends whole iterations of an
// 8-event loop that is already folded: the leaves come off the free list,
// the compute samples go into existing histograms, the rank set is shared.
// The builder is read, and each measured iteration ends, at a drain: only
// then is every recorded event in the builder, so the count covers the
// compression of the iteration's events as well as their recording.
func TestRecordExtendingLoopAllocatesNothing(t *testing.T) {
	col := NewCollector(1)
	tr := col.TracerFor(0)
	iteration := func() {
		for i := 0; i < 8; i++ {
			tr.Record(&mpi.Event{Op: mpi.OpSend, CallSite: uint64(100 + i), CommSize: 16,
				Peer: i, Tag: i, Size: 64 * i, Root: -1, ComputeUS: float64(i)})
		}
	}
	// Past the index's first prune, so its position lists have grown to
	// their steady-state capacity.
	for i := 0; i < 4*DefaultMaxWindow; i++ {
		iteration()
	}
	col.drain()
	if n := col.builders[0].Len(); n != 1 {
		t.Fatalf("warm-up did not fold into one loop: %d top-level nodes", n)
	}
	if avg := testing.AllocsPerRun(200, func() { iteration(); col.drain() }); avg != 0 {
		t.Fatalf("one more loop iteration allocates %v objects, want 0", avg)
	}
}

// TestConcurrentWorldsTraceIdentically runs two traced worlds at a time on
// two goroutines (under -race: the call-site cache is the only state they
// share) and requires each to produce the trace a lone run produces.
func TestConcurrentWorldsTraceIdentically(t *testing.T) {
	const n = 16
	_, alone := collectKernel(t, "cg", n)
	want := encodeTrace(t, alone)

	traces := make([]*Trace, 4)
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(traces); i += 2 {
				_, traces[i], errs[i] = traceKernel("cg", n)
			}
		}()
	}
	wg.Wait()
	for i, tr := range traces {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if encodeTrace(t, tr) != want {
			t.Fatalf("concurrent world %d produced a different trace", i)
		}
	}
}

// TestResetKeepsIndexOnlyForShortStreams: Reset keeps the tail index's
// storage for the next stream — unless the stream was long enough to grow
// the maps past a prune interval, because clearing a map costs its capacity:
// one long segment would tax every later Reset (a 16-rank trace with 20 000
// unfoldable events before 3 000 barriers aligned 4x slower that way).
func TestResetKeepsIndexOnlyForShortStreams(t *testing.T) {
	b := NewStreamBuilder(DefaultMaxWindow)
	fill := func(events int) {
		for i := 0; i < events; i++ {
			l := b.NewLeaf()
			*l = RSD{Op: mpi.OpSend, Site: uint64(i), Ranks: taskset.Of(0), CommSize: 16, Peer: AbsParam(1), Tag: i, Root: -1}
			b.Append(l)
		}
	}
	fill(b.pruneInterval() / 2)
	b.Reset(true)
	if b.nodeAt == nil || len(b.nodeAt) != 0 || cap(b.links) == 0 || b.Len() != 0 {
		t.Fatalf("after a short stream Reset should keep empty index storage: nodeAt=%v (len %d), cap(links)=%d, Len=%d",
			b.nodeAt != nil, len(b.nodeAt), cap(b.links), b.Len())
	}
	fill(3 * b.pruneInterval())
	b.Reset(true)
	if b.nodeAt != nil || b.tailAt != nil || b.links != nil {
		t.Fatal("after a stream longer than a prune interval Reset should drop the index storage")
	}
	fill(8) // and the builder works on from there
	if b.Len() != 8 {
		t.Fatalf("builder holds %d nodes after Reset and 8 appends", b.Len())
	}
	// A sequence the merge only read comes back leaf by leaf, zeroed.
	kept, free := b.Seq()[0].(*RSD), len(b.free)
	b.Reset(false)
	if len(b.free) != free+8 || b.Len() != 0 || kept.Op != mpi.OpNone || !kept.Ranks.IsEmpty() {
		t.Fatalf("Reset(false) should recycle the 8 leaves: free list %d -> %d, Len=%d, first leaf %v",
			free, len(b.free), b.Len(), kept)
	}
}
