package align

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// This file pins what Algorithm 1's reuse of stream builders relies on: that
// a segment builder which recycles absorbed leaves, is reset at every
// collective and takes back the leaves of a sequence its class shared yields
// the trace never-recycling builders yield, with no recycled leaf and no
// leaf of a shared sequence left in it, and that the reuse keeps paying.

func traceKernel(t testing.TB, name string, n int, class apps.Class) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	body := apps.ByName(name).Body(apps.NewConfig(n, class))
	if _, err := mpi.Run(n, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return col.Trace()
}

func encodeTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkNoRecycledLeaf fails if a leaf or loop reachable from seq is zeroed
// (the state of every node on a free list, and release's mark), if a leaf is
// reachable twice, or if one holds some ranks of a lockstep class without
// the others: a leaf of the sequence a class shares carries the class's
// first member alone, and what the merge makes of it carries them all.
func checkNoRecycledLeaf(t *testing.T, label string, classOf []int, seq []trace.Node) {
	t.Helper()
	size := map[int]int{}
	for _, c := range classOf {
		size[c]++
	}
	seen := map[*trace.RSD]bool{}
	var walk func(where string, seq []trace.Node)
	walk = func(where string, seq []trace.Node) {
		for i, n := range seq {
			switch x := n.(type) {
			case *trace.RSD:
				at := fmt.Sprintf("%s[%d]", where, i)
				switch {
				case x.Op == mpi.OpNone || x.Ranks.IsEmpty():
					t.Fatalf("%s: zeroed leaf reachable at %s", label, at)
				case seen[x]:
					t.Fatalf("%s: leaf at %s is reachable twice", label, at)
				}
				seen[x] = true
				inLeaf := map[int]int{}
				for _, r := range x.Ranks.Members() {
					inLeaf[classOf[r]]++
				}
				for c, members := range inLeaf {
					if members != size[c] {
						t.Fatalf("%s: leaf at %s holds %d of the %d ranks of a lockstep class: %v", label, at, members, size[c], x)
					}
				}
			case *trace.Loop:
				if x.Iters == 0 || len(x.Body) == 0 {
					t.Fatalf("%s: zeroed loop reachable at %s[%d]", label, where, i)
				}
				walk(fmt.Sprintf("%s[%d].Body", where, i), x.Body)
			}
		}
	}
	walk("seq", seq)
}

func TestAlignRecycledLeavesUnreachable(t *testing.T) {
	recycled, shared := false, false
	for _, name := range []string{"sweep3d", "is", "lu"} {
		tr := traceKernel(t, name, 16, apps.ClassS)
		classOf := lockstepClasses(tr, groupsOf(tr))
		shared = shared || classOf[len(classOf)-1] < len(classOf)-1
		var aligned, reference *trace.Trace
		var err error
		recycling := testing.AllocsPerRun(1, func() { aligned, err = Align(tr) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh := testing.AllocsPerRun(1, func() { reference, err = alignWith(tr, lockstepClasses, trace.NewBuilderWindow) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// is folds nothing between its collectives; the other two do.
		recycled = recycled || recycling < fresh
		if len(aligned.Groups) != 1 {
			t.Fatalf("%s: aligned trace has %d groups", name, len(aligned.Groups))
		}
		checkNoRecycledLeaf(t, name, classOf, aligned.Groups[0].Seq)
		if got, want := encodeTrace(t, aligned), encodeTrace(t, reference); got != want {
			t.Fatalf("%s: recycling segment builders change the aligned trace\nwant:\n%s\ngot:\n%s", name, want, got)
		}
	}
	if !recycled {
		t.Fatal("no kernel allocated less with recycling builders: no leaf was ever recycled and the test checks nothing")
	}
	if !shared {
		t.Fatal("no kernel has a class of two ranks: no sequence was ever shared")
	}
}

// TestAppendPathCounts pins how many appends of the stream builders take the
// pending-iteration cursor and how many the tail index, in collection, in
// Algorithm 1's segment builders and in trace.Pinned (Algorithm 2's rebuild,
// with the pins Algorithm 2 assigns), for three kernels at 16 ranks. The
// output is the same whichever path an append takes, so no golden notices a
// cursor that stops arming; these counts do. lu's collection is also held
// to at most 3,500 indexed appends: a walk over its loop nests predicts
// 3,184 once the cursor follows nested loops, against 16,720 when it
// stopped at the first one.
func TestAppendPathCounts(t *testing.T) {
	type paths struct{ cursor, indexed int64 }
	want := map[string][3]paths{ // collection, Align, Pinned
		"bt": {{7344, 912}, {864, 98}, {7344, 912}},
		"cg": {{444, 672}, {0, 107}, {444, 672}},
		"lu": {{16176, 3184}, {5760, 3849}, {16176, 3184}},
	}
	const luCollectionIndexed = 3500
	cursor, indexed := telemetry.NewCounter("trace.cursor_appends"), telemetry.NewCounter("trace.indexed_appends")
	count := func(run func()) paths {
		c, i := cursor.Value(), indexed.Value()
		run()
		return paths{cursor.Value() - c, indexed.Value() - i}
	}
	telemetry.Enable()
	defer telemetry.Disable()
	for _, name := range []string{"bt", "cg", "lu"} {
		var tr *trace.Trace
		var got [3]paths
		got[0] = count(func() { tr = traceKernel(t, name, 16, apps.ClassS) })
		got[1] = count(func() {
			if _, err := Align(tr); err != nil {
				t.Fatal(err)
			}
		})
		pins, err := wildcard.Assign(tr)
		if err != nil {
			t.Fatal(err)
		}
		got[2] = count(func() { trace.Pinned(tr, pins) })
		if got != want[name] {
			t.Errorf("%s@16: {cursor indexed} appends of collection, Align, Pinned = %v, want %v", name, got, want[name])
		}
		if name == "lu" && got[0].indexed > luCollectionIndexed {
			t.Errorf("lu@16: collection took %d indexed appends, want at most %d", got[0].indexed, luCollectionIndexed)
		}
	}
}

// TestVectorPeerClassCounts pins the lockstep classes of the stencils whose
// exchanges have vector peers: two at 16 and 64 ranks, where a class for each
// rank with a vector peer made them 64, 64 and 57 at 64 ranks. cg has pairs
// of leaves equal but for their peers, whose peers are equal for every
// member, so they split no class.
func TestVectorPeerClassCounts(t *testing.T) {
	pairs := 0
	for _, name := range []string{"bt", "sp", "cg"} {
		for _, n := range []int{16, 64} {
			tr := traceKernel(t, name, n, apps.ClassS)
			if got := classCount(t, tr); got != 2 {
				t.Errorf("%s@%d: %d lockstep classes, want 2", name, n, got)
			}
			for _, g := range tr.Groups {
				pairs += len(peerPairs(tr, g.Seq))
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no kernel has a vector-peer leaf equal to another but for its peer: the class rule's refinement is never reached")
	}
}

// TestAlignAllocationsPerEvent bounds what Algorithm 1 allocates per event of
// its input. sweep3d at 16 ranks, 9 lockstep classes, is bounded in objects:
// 1.17 per event, mostly the clone of a shared sequence's leaf; the merged
// leaves share one rank set per class member. A rank set per member and leaf
// made it 1.66, and a leaf per rank and event that stayed in its segment 2.1.
// bt and cg at 64 ranks, 2 classes whose leaves have vector peers, are bounded
// in bytes, at half of the 21 and 248 bytes per event that a copy of the
// class's segment for every member but the first cost them.
func TestAlignAllocationsPerEvent(t *testing.T) {
	for _, k := range []struct {
		app   string
		n     int
		class apps.Class
		// bounds per event of the input; 0 leaves one unbounded
		objects, bytes float64
	}{
		{"sweep3d", 16, apps.ClassS, 1.3, 0},
		{"bt", 64, apps.ClassS, 0, 10.5},
		{"cg", 64, apps.ClassS, 0, 124},
	} {
		tr := traceKernel(t, k.app, k.n, k.class)
		if !Needed(tr) {
			t.Fatalf("premise: %s@%d trace should need alignment", k.app, k.n)
		}
		align := func() {
			if _, err := Align(tr); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 5
		allocs := testing.AllocsPerRun(runs, align)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			align()
		}
		runtime.ReadMemStats(&after)
		events := float64(tr.TotalEvents())
		objects, bytes := allocs/events, float64(after.TotalAlloc-before.TotalAlloc)/runs/events
		t.Logf("%s@%d: %.0f events, %.2f objects and %.0f bytes per event", k.app, k.n, events, objects, bytes)
		if k.objects > 0 && objects > k.objects {
			t.Errorf("Align allocated %.2f objects per event of %s@%d, want at most %.2f", objects, k.app, k.n, k.objects)
		}
		if k.bytes > 0 && bytes > k.bytes {
			t.Errorf("Align allocated %.0f bytes per event of %s@%d, want at most %.1f", bytes, k.app, k.n, k.bytes)
		}
	}
}

// BenchmarkAlign measures Algorithm 1 where it is the first cost of
// generation: sweep3d-64/A is the ledger's gen-irregular input (9 lockstep
// classes for 64 ranks, as lu and halo2d have); bt and cg are stencils whose
// exchanges have vector peers, at 64, 256 and 1024 ranks: 2 classes at every
// scale, each handed to the merge once with its members' own peers. The
// 256 and 1024 rows give the growth of Algorithm 1 on them in one run.
// classes is the number of traversal contexts, ns/event the time per event of
// the input trace.
func BenchmarkAlign(b *testing.B) {
	for _, k := range []struct {
		app   string
		n     int
		class apps.Class
	}{{"sweep3d", 16, apps.ClassS}, {"sweep3d", 64, apps.ClassA}, {"lu", 64, apps.ClassA}, {"halo2d", 64, apps.ClassA},
		{"bt", 64, apps.ClassS}, {"cg", 64, apps.ClassS}, {"bt", 256, apps.ClassS}, {"cg", 256, apps.ClassS},
		{"bt", 1024, apps.ClassS}, {"cg", 1024, apps.ClassS}} {
		b.Run(fmt.Sprintf("%s-%d/%c", k.app, k.n, k.class), func(b *testing.B) {
			tr := alignInput(b, k.app, k.n, k.class)
			if !Needed(tr) {
				b.Fatal("premise: the trace should need alignment")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Align(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(classCount(b, tr)), "classes")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.TotalEvents()), "ns/event")
		})
	}
}

// TestAlignedQueueDoesNotGrowWithIterations holds Algorithm 1 to the paper's
// guarantee 3: the aligned trace stays scalable in length. An application's
// rounds must fold into one loop however many there are — sweep3d, whose
// round between two Allreduces is 769 nodes, at classes A, B and C, and a
// kernel whose round is 300 distinct-tag exchanges, longer than both
// DefaultMaxWindow and any window that grows with the rank count alone.
func TestAlignedQueueDoesNotGrowWithIterations(t *testing.T) {
	alignedNodes := func(tr *trace.Trace) int {
		t.Helper()
		aligned, err := Align(tr)
		if err != nil {
			t.Fatal(err)
		}
		return aligned.NodeCount()
	}
	sizes := map[apps.Class]int{}
	for _, class := range []apps.Class{apps.ClassA, apps.ClassB, apps.ClassC} {
		sizes[class] = alignedNodes(alignInput(t, "sweep3d", 16, class))
	}
	if sizes[apps.ClassB] != sizes[apps.ClassA] || sizes[apps.ClassC] != sizes[apps.ClassA] {
		t.Errorf("sweep3d@16 aligns to %d, %d and %d nodes at classes A, B and C", sizes[apps.ClassA], sizes[apps.ClassB], sizes[apps.ClassC])
	}

	const n, tags = 4, 300
	longRounds := func(iters int) func(*mpi.Rank) {
		return func(r *mpi.Rank) {
			for range iters {
				for tag := range tags {
					rq := r.Irecv(r.World(), (r.Rank()+n-1)%n, tag, 64)
					sq := r.Isend(r.World(), (r.Rank()+1)%n, tag, 64)
					r.Waitall(rq, sq)
				}
				r.Allreduce(r.World(), 8)
			}
		}
	}
	few, many := alignedNodes(collect(t, n, longRounds(5))), alignedNodes(collect(t, n, longRounds(20)))
	t.Logf("aligned nodes: sweep3d@16 %d (A) %d (B) %d (C); long rounds %d (5 iterations) %d (20)",
		sizes[apps.ClassA], sizes[apps.ClassB], sizes[apps.ClassC], few, many)
	if few != many {
		t.Errorf("rounds of %d exchanges align to %d nodes at 5 iterations, %d at 20", tags, few, many)
	}
}

// TestCollectorsAndAlignShareBuilderPool runs two traced worlds and Algorithm
// 1 at a time, on three goroutines that take stream builders from one pool
// and hand them back (under -race: a builder one of them still appended to
// after handing it back would show), and requires each to produce what it
// produces alone.
func TestCollectorsAndAlignShareBuilderPool(t *testing.T) {
	const n, rounds = 16, 3
	collect := func(name string) (string, error) {
		col := trace.NewCollector(n)
		body := apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS))
		if _, err := mpi.Run(n, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		var buf bytes.Buffer
		err := trace.Encode(&buf, col.Trace())
		return buf.String(), err
	}
	sweep := traceKernel(t, "sweep3d", n, apps.ClassS)
	realign := func(string) (string, error) {
		aligned, err := Align(sweep)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		err = trace.Encode(&buf, aligned)
		return buf.String(), err
	}
	jobs := []struct {
		name string
		run  func(string) (string, error)
	}{{"cg", collect}, {"lu", collect}, {"align sweep3d", realign}}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = j.run(j.name); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		go func() {
			for range rounds {
				got, err := j.run(j.name)
				if err == nil && got != want[i] {
					err = fmt.Errorf("%s: concurrent run differs from the lone one", j.name)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range jobs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
