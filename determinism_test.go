package repro

import (
	"bytes"
	"fmt"
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
	"repro/internal/replay"
	"repro/internal/trace"
)

// TestRunToRunDeterminism re-runs every kernel and demands bit-identical
// clocks, traces and mpiP profiles. The event engine is deterministic even
// for the wildcard kernels: matching follows virtual-time order with a fixed
// tie-break, so no kernel is excluded here.
func TestRunToRunDeterminism(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			first, firstTrace, firstProf := runKernel(t, name, n)
			second, secondTrace, secondProf := runKernel(t, name, n)
			if report := mpip.Diff(firstProf, secondProf); !report.Match() {
				t.Errorf("mpiP profiles differ between runs:\n%s", report)
			}
			for i := range first.PerRankUS {
				if first.PerRankUS[i] != second.PerRankUS[i] {
					t.Errorf("rank %d clock differs between runs: %v vs %v",
						i, first.PerRankUS[i], second.PerRankUS[i])
				}
			}
			if !bytes.Equal(firstTrace, secondTrace) {
				t.Error("encoded traces differ between runs")
			}
		})
	}
}

// runKernel runs one kernel with a trace collector and an mpiP profile
// attached and returns the result, the encoded trace bytes and the profile,
// so callers can compare runs at all three levels (clocks, trace, profile).
func runKernel(t *testing.T, name string, n int, opts ...mpi.Option) (*mpi.Result, []byte, *mpip.Profile) {
	t.Helper()
	return runBody(t, name, n, apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS)), opts...)
}

// runBody is runKernel for any rank body; name labels its errors.
func runBody(t *testing.T, name string, n int, body func(*mpi.Rank), opts ...mpi.Option) (*mpi.Result, []byte, *mpip.Profile) {
	t.Helper()
	col := trace.NewCollector(n)
	prof := mpip.NewProfile()
	opts = append(opts, mpi.WithTracer(func(rank int) mpi.Tracer {
		return mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
	}))
	res, err := mpi.Run(n, netmodel.BlueGeneL(), body, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return res, buf.Bytes(), prof
}

// replayKernel replays tr on stackless cursors with a fresh collector
// attached and returns the result and the encoded re-trace.
func replayKernel(t *testing.T, tr *trace.Trace, opts ...mpi.Option) (*mpi.Result, []byte) {
	t.Helper()
	col := trace.NewCollector(tr.N)
	opts = append(opts, mpi.WithTracer(col.TracerFor))
	res, err := replay.Replay(tr, netmodel.BlueGeneL(), opts...)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("encode re-trace: %v", err)
	}
	return res, buf.Bytes()
}

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

// TestPooledWorldDeterminism pins the Engine's reset contract: one shared
// pool serves every kernel twice (the second run is always a warm reuse of
// the world the first released), and both pooled runs must be bit-identical
// to a fresh-world run — same per-rank clocks, same encoded trace. A single
// field the reset forgets to scrub shows up here as cross-kernel
// contamination.
func TestPooledWorldDeterminism(t *testing.T) {
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			fresh, freshTrace, _ := runKernel(t, name, n)
			for pass := 1; pass <= 2; pass++ {
				pooled, pooledTrace, _ := runKernel(t, name, n, mpi.WithEngine(eng))
				if !bytes.Equal(freshTrace, pooledTrace) {
					t.Errorf("pooled pass %d: trace differs from fresh world", pass)
				}
				for i := range fresh.PerRankUS {
					if fresh.PerRankUS[i] != pooled.PerRankUS[i] {
						t.Errorf("pooled pass %d: rank %d clock %v, fresh %v",
							pass, i, pooled.PerRankUS[i], fresh.PerRankUS[i])
					}
				}
			}
		})
	}
}

// TestPooledReplayDeterminism runs the same contract for the stackless path:
// replaying a trace through a pooled engine (cursor ranks on a reused world)
// must be bit-identical to a cold stackless replay.
func TestPooledReplayDeterminism(t *testing.T) {
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, name := range []string{"bt", "lu", "halo2d"} {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			_, traceBytes, _ := runKernel(t, name, n)
			tr, err := trace.Decode(bytes.NewReader(traceBytes))
			if err != nil {
				t.Fatalf("decode trace: %v", err)
			}
			cold, coldTrace := replayKernel(t, tr)
			for pass := 1; pass <= 2; pass++ {
				warm, warmTrace := replayKernel(t, tr, mpi.WithEngine(eng))
				if !bytes.Equal(coldTrace, warmTrace) {
					t.Errorf("pooled pass %d: re-trace differs from cold replay", pass)
				}
				for i := range warm.PerRankUS {
					if cold.PerRankUS[i] != warm.PerRankUS[i] {
						t.Errorf("pooled pass %d: rank %d clock %v, cold %v",
							pass, i, warm.PerRankUS[i], cold.PerRankUS[i])
					}
				}
			}
		})
	}
}
