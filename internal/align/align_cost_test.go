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
// a segment builder which recycles absorbed leaves and is reset at every
// collective yields the trace never-recycling builders yield, with no
// recycled leaf left in it, and that the reuse keeps paying.

func traceKernel(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	body := apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS))
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
// state of every leaf on a free list, and release's mark — or is reachable
// twice.
func checkNoRecycledLeaf(t *testing.T, label string, seq []trace.Node) {
	t.Helper()
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
			case *trace.Loop:
				walk(fmt.Sprintf("%s[%d].Body", where, i), x.Body)
			}
		}
	}
	walk("seq", seq)
}

func TestAlignRecycledLeavesUnreachable(t *testing.T) {
	recycled := false
	for _, name := range []string{"sweep3d", "is", "lu"} {
		tr := traceKernel(t, name, 16)
		var aligned, reference *trace.Trace
		var err error
		recycling := testing.AllocsPerRun(1, func() { aligned, err = Align(tr) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh := testing.AllocsPerRun(1, func() { reference, err = alignWith(tr, trace.NewBuilderWindow) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// is folds nothing between its collectives; the other two do.
		recycled = recycled || recycling < fresh
		if len(aligned.Groups) != 1 {
			t.Fatalf("%s: aligned trace has %d groups", name, len(aligned.Groups))
		}
		checkNoRecycledLeaf(t, name, aligned.Groups[0].Seq)
		if got, want := encodeTrace(t, aligned), encodeTrace(t, reference); got != want {
			t.Fatalf("%s: recycling segment builders change the aligned trace\nwant:\n%s\ngot:\n%s", name, want, got)
		}
	}
	if !recycled {
		t.Fatal("no kernel allocated less with recycling builders: no leaf was ever recycled and the test checks nothing")
	}
}

// TestAlignAllocationsPerEvent bounds Algorithm 1's allocations on sweep3d at
// 16 ranks: 2.2 objects per re-emitted event — the leaf, when it stays in
// the segment that goes to the merge, and the merged leaf's growing rank set
// — where a builder per segment and a rank set and leaf per event made it 4.
func TestAlignAllocationsPerEvent(t *testing.T) {
	tr := traceKernel(t, "sweep3d", 16)
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
	if perEvent > 2.6 {
		t.Errorf("Align allocated %.2f objects per event, want at most 2.6", perEvent)
	}
}
