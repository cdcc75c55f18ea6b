package trace

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
)

// This file holds the stream builders' pool to what fresh builders give: a
// run on recycled builders traces byte for byte as a cold one, a recycled
// builder is one no earlier run can still append to, and a warm builder
// allocates nothing, nor does a second collection most of what the first
// did.

// noGC turns the garbage collector off until the test ends: a collection
// empties the pool, and the tests below need what the last run recycled.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestRecycledBuildersTraceIdentically collects every kernel at 16 ranks (or
// the largest count below that it accepts) twice in one process, the second
// time on the builders the first recycled: the encodings must be
// byte-identical.
func TestRecycledBuildersTraceIdentically(t *testing.T) {
	noGC(t)
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			var texts [2]string
			first := map[*Builder]bool{}
			recycled := 0
			for i := range texts {
				col, err := runKernel(name, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range col.builders {
					if i == 0 {
						first[b] = true
					} else if first[b] {
						recycled++
					}
				}
				texts[i] = encodeTrace(t, col.Trace())
			}
			if recycled == 0 {
				t.Fatal("the second run got no builder the first recycled: the test checks nothing")
			}
			if texts[0] != texts[1] {
				t.Fatalf("recycled builders trace differently:\n%s\nvs\n%s", texts[0], texts[1])
			}
		})
	}
}

// TestRecordAfterTracePanics: Trace hands the builders to later runs, so a
// tracer called after it must not append to one of them.
func TestRecordAfterTracePanics(t *testing.T) {
	col := NewCollector(2)
	tracer := col.TracerFor(0)
	recordSteadily(col, 3)
	col.Trace()
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrRecordAfterTrace) {
			t.Fatalf("Record after Trace recovered %v, want ErrRecordAfterTrace", err)
		}
	}()
	tracer.Record(&mpi.Event{Op: mpi.OpBarrier, CommSize: 2, Peer: mpi.NoPeer, Root: -1})
	t.Fatal("Record after Trace returned")
}

// TestWarmNestedPairFoldAllocatesNothing rebuilds one stream on one builder,
// reset after each pass as Algorithm 1 resets a class's segment builder: a
// pair fold whose loop body holds a loop, and the inner pair folds before
// it. Once the builder is warm the leaves, the loops and both compute pools
// of every leaf come off its free lists, so a pass allocates nothing. The
// samples share one histogram bin, as a steady loop's do: a second bin
// would allocate the bin array a reset pool drops.
func TestWarmNestedPairFoldAllocatesNothing(t *testing.T) {
	b := NewStreamBuilder(DefaultMaxWindow)
	ranks := taskset.Of(0)
	leaf := func(site uint64) {
		r := b.NewLeaf()
		r.Op, r.Site, r.Ranks, r.CommSize, r.Peer, r.Root = mpi.OpSend, site, ranks, 2, AbsParam(1), -1
		r.SetComputeSample(1.5)
		b.Append(r)
	}
	pass := func() {
		for range 2 { // [Loop{2, [a b]}, c] twice: the outer pair fold
			leaf(1)
			leaf(2)
			leaf(1)
			leaf(2)
			leaf(3)
		}
		if loop, ok := b.Seq()[0].(*Loop); b.Len() != 1 || !ok || loop.Iters != 2 {
			t.Fatalf("the pass did not fold into one loop of two iterations: %v", b.Seq())
		}
		b.Reset(false)
	}
	pass()
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("a nested pair fold on a warm builder allocates %v objects, want 0", avg)
	}
}

// TestSecondCollectionAllocatesHalf collects bt@16/S twice on one world
// pool, as the pipeline runs, with the garbage collector off, so that the
// pools keep what the first run recycled: the second run, on a warm world,
// warm builders and warm chunks, must allocate at most half the first's
// bytes per event. A run on another world first fills the call-site cache,
// the spare chunks are topped up to a ring, so that neither run's count
// depends on how far its compressor falls behind, and two collections empty
// the builder pool: the first measured run is cold only where the second is
// warm.
func TestSecondCollectionAllocatesHalf(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of the builders handed back")
	}
	body := apps.ByName("bt").Body(apps.NewConfig(16, apps.ClassS))
	collect := func(opts ...mpi.Option) *Trace {
		col := NewCollector(16)
		if _, err := mpi.Run(16, netmodel.BlueGeneL(), body, append(opts, mpi.WithTracer(col.TracerFor))...); err != nil {
			t.Fatal(err)
		}
		return col.Trace()
	}
	collect()
	spare.Lock()
	for len(spare.chunks) < ringChunks {
		spare.chunks = append(spare.chunks, new(chunk))
	}
	spare.Unlock()
	runtime.GC()
	runtime.GC() // the pool's victim cache survives one collection
	noGC(t)
	eng := mpi.NewEngine()
	defer eng.Close()
	var perEvent [2]float64
	for i := range perEvent {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := collect(mpi.WithEngine(eng))
		runtime.ReadMemStats(&after)
		perEvent[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.TotalEvents())
	}
	t.Logf("bt@16: %.1f B per event cold, %.1f B warm", perEvent[0], perEvent[1])
	if perEvent[1] > perEvent[0]/2 {
		t.Errorf("the second collection allocates %.1f B per event, bound half the first's %.1f", perEvent[1], perEvent[0])
	}
}
