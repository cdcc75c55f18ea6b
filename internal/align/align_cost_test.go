package align

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
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

// checkNoRecycledLeaf fails if a leaf reachable from seq is zeroed — the
// state of every leaf on a free list, and release's mark — is reachable
// twice, or holds some ranks of a lockstep class without the others: a leaf
// of the sequence a class shares carries the class's first member alone, and
// what the merge makes of it carries them all.
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

// TestAlignAllocationsPerEvent bounds Algorithm 1's allocations on sweep3d at
// 16 ranks, 9 lockstep classes: 1.66 objects per event of the input — the
// clone of a shared sequence's leaf and the merged leaf's rank set, which
// still grows by one allocation per member — where a leaf per rank and
// event that stayed in its segment made it 2.1.
func TestAlignAllocationsPerEvent(t *testing.T) {
	tr := traceKernel(t, "sweep3d", 16, apps.ClassS)
	if !Needed(tr) {
		t.Fatal("premise: sweep3d trace should need alignment")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Align(tr); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(tr.TotalEvents())
	t.Logf("%d events, %.0f objects allocated, %.2f per event", tr.TotalEvents(), allocs, perEvent)
	if perEvent > 1.9 {
		t.Errorf("Align allocated %.2f objects per event, want at most 1.9", perEvent)
	}
}

// BenchmarkAlign measures Algorithm 1 where it is the first cost of
// generation: sweep3d-64/A is the ledger's gen-irregular input (9 lockstep
// classes for 64 ranks, as lu and halo2d have), bt-64/S the case that gains
// nothing — vector peers, every class one rank. classes is the number of
// traversal contexts, ns/event the time per event of the input trace.
func BenchmarkAlign(b *testing.B) {
	for _, k := range []struct {
		app   string
		n     int
		class apps.Class
	}{{"sweep3d", 16, apps.ClassS}, {"sweep3d", 64, apps.ClassA}, {"lu", 64, apps.ClassA}, {"halo2d", 64, apps.ClassA}, {"bt", 64, apps.ClassS}} {
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
