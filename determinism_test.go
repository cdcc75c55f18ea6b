package repro

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// TestPipelineDeterminism asserts the paper pipeline's core guarantee at a
// scale the other determinism tests and the golden digests (16 ranks) do not
// reach: two runs of a 64-rank application through collection, the
// inter-node merge and generation print byte-identical programs.
func TestPipelineDeterminism(t *testing.T) {
	var want string
	for run := 0; run < 2; run++ {
		traced, err := harness.TraceApp("bt", apps.NewConfig(64, apps.ClassS), netmodel.Ideal())
		if err != nil {
			t.Fatalf("run %d: trace: %v", run, err)
		}
		prog, err := core.Generate(traced.Trace, nil)
		if err != nil {
			t.Fatalf("run %d: generate: %v", run, err)
		}
		got := conceptual.Print(prog)
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatal("generated program differs between two runs")
		}
	}
}

// finalClocks is a tracer factory recording each rank's clock at Finalize —
// Result.PerRankUS, which harness.TraceApp does not hand out.
type finalClocks []float64

func (c finalClocks) TracerFor(rank int) mpi.Tracer { return finalClock{c, rank} }

type finalClock struct {
	clocks finalClocks
	rank   int
}

func (f finalClock) Record(ev *mpi.Event) {
	if ev.Op == mpi.OpFinalize {
		f.clocks[f.rank] = ev.EndUS
	}
}

// TestTracedRunIndependentOfGOMAXPROCS pins what DESIGN.md §7 asserts of
// coroutine ranks under a tracer: the driver switches to one rank at a time
// whatever the number of Ps, so a traced application run at GOMAXPROCS 1 and
// at 2 yields the same encoded trace, the same per-rank clocks and the same
// mpiP profile. lu adds wildcard receives, whose matching is where a
// scheduling dependence would show first.
func TestTracedRunIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 16
	for _, name := range []string{"bt", "cg", "lu"} {
		var (
			wantTrace  []byte
			wantClocks finalClocks
			wantProf   *mpip.Profile
		)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			clocks := make(finalClocks, n)
			run, err := harness.TraceApp(name, apps.NewConfig(n, apps.ClassS), netmodel.BlueGeneL(), clocks.TracerFor)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
			var buf bytes.Buffer
			if err := trace.Encode(&buf, run.Trace); err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if procs == 1 {
				wantTrace, wantClocks, wantProf = buf.Bytes(), clocks, run.Profile
				continue
			}
			if !bytes.Equal(buf.Bytes(), wantTrace) {
				t.Errorf("%s: encoded trace differs between GOMAXPROCS 1 and %d", name, procs)
			}
			if !slices.Equal(clocks, wantClocks) {
				t.Errorf("%s: per-rank clocks differ between GOMAXPROCS 1 and %d:\n%v\n%v", name, procs, wantClocks, clocks)
			}
			if report := mpip.Diff(wantProf, run.Profile); !report.Match() {
				t.Errorf("%s: mpiP profiles differ between GOMAXPROCS 1 and %d:\n%s", name, procs, report)
			}
		}
	}
}
