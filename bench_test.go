// Benchmarks regenerating the paper's evaluation (Section 5): one benchmark
// per table/figure, plus ablations of the design choices DESIGN.md calls
// out. Domain results (timing error, trace size, code size, U-shape) are
// attached to the standard output via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment log. Full-scale
// (class C) runs live in cmd/experiments; the benchmarks use smaller
// classes to stay fast.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/taskset"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

func pickRanks(name string, hint int) int {
	app := apps.ByName(name)
	for n := hint; n >= app.MinRanks; n-- {
		if app.ValidRanks(n) {
			return n
		}
	}
	return app.MinRanks
}

// BenchmarkFig6 reproduces Figure 6 per application: trace the original,
// generate the benchmark, run both, and report the timing error. The
// "errpct" metric is the per-app |generated-original|/original percentage.
func BenchmarkFig6(b *testing.B) {
	for _, name := range append(apps.NPBNames(), "sweep3d") {
		b.Run(name, func(b *testing.B) {
			n := pickRanks(name, 16)
			var errPct float64
			for i := 0; i < b.N; i++ {
				run, err := harness.TraceApp(name, apps.NewConfig(n, apps.ClassW), netmodel.BlueGeneL())
				if err != nil {
					b.Fatal(err)
				}
				bench, err := harness.GenerateAndRun(run.Trace, netmodel.BlueGeneL())
				if err != nil {
					b.Fatal(err)
				}
				errPct = 100 * abs(bench.ElapsedUS-run.ElapsedUS) / run.ElapsedUS
			}
			b.ReportMetric(errPct, "errpct")
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkFig7 reproduces the Figure 7 sweep and reports the U-shape
// metrics: the dip (minimum as a fraction of the 100% time) and the
// 0%-compute point as a fraction of the 100% time.
func BenchmarkFig7(b *testing.B) {
	var dipFrac, zeroFrac float64
	for i := 0; i < b.N; i++ {
		points, err := harness.Fig7(apps.ClassA, 16, netmodel.EthernetCluster())
		if err != nil {
			b.Fatal(err)
		}
		minIdx, _ := harness.Fig7Shape(points)
		dipFrac = points[minIdx].TotalUS / points[0].TotalUS
		zeroFrac = points[len(points)-1].TotalUS / points[0].TotalUS
	}
	b.ReportMetric(dipFrac, "dip-frac")
	b.ReportMetric(zeroFrac, "zero-frac")
}

// BenchmarkTable1 measures the generation path for each substituted
// collective (Table 1) end to end: trace -> align -> generate.
func BenchmarkTable1(b *testing.B) {
	counts := []int{128, 256, 384, 512}
	cases := []struct {
		name string
		body func(*mpi.Rank)
	}{
		{"Allgather", func(r *mpi.Rank) { r.Allgather(r.World(), 64) }},
		{"Allgatherv", func(r *mpi.Rank) { r.Allgatherv(r.World(), counts[r.Rank()]) }},
		{"Alltoallv", func(r *mpi.Rank) { r.Alltoallv(r.World(), counts) }},
		{"Gather", func(r *mpi.Rank) { r.Gather(r.World(), 1, 64) }},
		{"Gatherv", func(r *mpi.Rank) { r.Gatherv(r.World(), 1, counts[r.Rank()]) }},
		{"ReduceScatter", func(r *mpi.Rank) { r.ReduceScatter(r.World(), counts) }},
		{"Scatter", func(r *mpi.Rank) { r.Scatter(r.World(), 2, 64) }},
		{"Scatterv", func(r *mpi.Rank) { r.Scatterv(r.World(), 2, counts) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			col := trace.NewCollector(4)
			if _, err := mpi.Run(4, netmodel.Ideal(), c.body, mpi.WithTracer(col.TracerFor)); err != nil {
				b.Fatal(err)
			}
			tr := col.Trace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Generate(tr, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrectness runs the Section 5.2 profile-comparison experiment.
func BenchmarkCorrectness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"bt", "lu", "is", "sweep3d"} {
			n := pickRanks(name, 16)
			res, err := harness.Correctness(name, apps.NewConfig(n, apps.ClassS), netmodel.BlueGeneL())
			if err != nil {
				b.Fatal(err)
			}
			if !res.Match {
				b.Fatalf("%s profiles diverged: %v", name, res.Diffs)
			}
		}
	}
}

// BenchmarkScaling measures trace size and generated-code size versus rank
// count (the Section 2 sublinearity claims). Metrics: compressed trace
// nodes and generated statements at the largest scale.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("ring-%dranks", n), func(b *testing.B) {
			var nodes, stmts int
			for i := 0; i < b.N; i++ {
				points, err := harness.Scaling("ring", apps.ClassS, []int{n})
				if err != nil {
					b.Fatal(err)
				}
				nodes, stmts = points[0].TraceNodes, points[0].Stmts
			}
			b.ReportMetric(float64(nodes), "trace-nodes")
			b.ReportMetric(float64(stmts), "stmts")
		})
	}
}

// generateCase is one input of the generation benchmarks.
type generateCase struct {
	name, app string
	cfg       apps.Config
}

// generateCases returns each app at 16 ranks, class S, then the ledger's
// poorly compressing sweep3d at 64 ranks, class A.
func generateCases(names ...string) []generateCase {
	var cases []generateCase
	for _, name := range names {
		cases = append(cases, generateCase{name, name, apps.NewConfig(pickRanks(name, 16), apps.ClassS)})
	}
	return append(cases, generateCase{"sweep3d-64/A", "sweep3d", apps.NewConfig(64, apps.ClassA)})
}

// BenchmarkAlignPrecheck measures the O(r) pre-check that lets aligned
// traces skip Algorithm 1 entirely.
func BenchmarkAlignPrecheck(b *testing.B) {
	run, err := harness.TraceApp("ft", apps.NewConfig(16, apps.ClassS), netmodel.Ideal())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if align.Needed(run.Trace) {
			b.Fatal("ft is SPMD; no alignment expected")
		}
	}
}

// BenchmarkWildcardResolve measures Algorithm 2 on LU's wildcard receives.
func BenchmarkWildcardResolve(b *testing.B) {
	run, err := harness.TraceApp("lu", apps.NewConfig(16, apps.ClassS), netmodel.Ideal())
	if err != nil {
		b.Fatal(err)
	}
	if !wildcard.Present(run.Trace) {
		b.Fatal("premise: lu trace should contain wildcards")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wildcard.Resolve(run.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWildcardPrecheck measures the O(r) wildcard pre-check.
func BenchmarkWildcardPrecheck(b *testing.B) {
	run, err := harness.TraceApp("bt", apps.NewConfig(16, apps.ClassS), netmodel.Ideal())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wildcard.Present(run.Trace) {
			b.Fatal("bt has no wildcards")
		}
	}
}

// BenchmarkAblationCompressionWindow compares on-the-fly loop compression
// across window sizes: the trace-nodes metric shows the compression a
// window buys (window 0 disables folding entirely).
func BenchmarkAblationCompressionWindow(b *testing.B) {
	for _, window := range []int{0, 8, 64, trace.DefaultMaxWindow} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				col := trace.NewCollector(8)
				col.SetWindow(window)
				app := apps.ByName("mg")
				if _, err := mpi.Run(8, netmodel.Ideal(), app.Body(apps.NewConfig(8, apps.ClassS)),
					mpi.WithTracer(col.TracerFor)); err != nil {
					b.Fatal(err)
				}
				nodes = col.Trace().NodeCount()
			}
			b.ReportMetric(float64(nodes), "trace-nodes")
		})
	}
}

// BenchmarkAblationComputeReplay compares histogram-mean compute replay
// (the paper's choice) against dropping compute entirely, reporting the
// timing error each incurs.
func BenchmarkAblationComputeReplay(b *testing.B) {
	run, err := harness.TraceApp("bt", apps.NewConfig(16, apps.ClassW), netmodel.BlueGeneL())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Generate(run.Trace, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("histogram-mean", func(b *testing.B) {
		var errPct float64
		for i := 0; i < b.N; i++ {
			res, err := harness.RunProgram(prog, 16, netmodel.BlueGeneL())
			if err != nil {
				b.Fatal(err)
			}
			errPct = 100 * abs(res.ElapsedUS-run.ElapsedUS) / run.ElapsedUS
		}
		b.ReportMetric(errPct, "errpct")
	})
	b.Run("no-compute", func(b *testing.B) {
		stripped := harness.ScaleCompute(prog, 0)
		var errPct float64
		for i := 0; i < b.N; i++ {
			res, err := harness.RunProgram(stripped, 16, netmodel.BlueGeneL())
			if err != nil {
				b.Fatal(err)
			}
			errPct = 100 * abs(res.ElapsedUS-run.ElapsedUS) / run.ElapsedUS
		}
		b.ReportMetric(errPct, "errpct")
	})
}

// BenchmarkTraceCollectionOverhead compares an instrumented run against an
// uninstrumented one — the tracing overhead a user pays.
func BenchmarkTraceCollectionOverhead(b *testing.B) {
	app := apps.ByName("bt")
	cfg := apps.NewConfig(16, apps.ClassS)
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mpi.Run(16, netmodel.BlueGeneL(), app.Body(cfg)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col := trace.NewCollector(16)
			if _, err := mpi.Run(16, netmodel.BlueGeneL(), app.Body(cfg),
				mpi.WithTracer(col.TracerFor)); err != nil {
				b.Fatal(err)
			}
			// The run's last events are compressed only once Trace joins
			// the compressor.
			col.Trace()
		}
	})
}

// BenchmarkBuilderAppend measures the intra-rank compression hot path: a
// long stream with an 8-event repeating phase plus a periodic phase break,
// so the hash-index fold exercises loop extension, pair folding and misses.
func BenchmarkBuilderAppend(b *testing.B) {
	leaves := make([]*trace.RSD, 10)
	for i := range leaves {
		r := &trace.RSD{Op: mpi.OpSend, Site: uint64(i), CommSize: 16,
			Peer: trace.AbsParam(i % 16), Tag: i, Size: 64 * i, Root: -1}
		leaves[i] = r
	}
	clone := func(r *trace.RSD) *trace.RSD {
		c := *r
		c.SetComputeSample(1.0)
		return &c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := trace.NewBuilderWindow(trace.DefaultMaxWindow)
		for ev := 0; ev < 4096; ev++ {
			if ev%512 == 511 {
				bld.Append(clone(leaves[8+ev%2])) // phase break
				continue
			}
			bld.Append(clone(leaves[ev%8]))
		}
	}
}

// BenchmarkMergeRankSeqs measures the inter-node merge on 64 ranks of ring
// traffic (all ranks unify into one group with rank-relative peers, the
// paper's common case). Merging consumes its input, so each iteration
// rebuilds the per-rank sequences; the build cost is the same for every
// implementation under test.
func BenchmarkMergeRankSeqs(b *testing.B) {
	const n = 64
	// stream compresses one rank's 20 iterations; peer gives the rank's ring
	// neighbours.
	stream := func(r int, peer func(off int) trace.Param) []trace.Node {
		bld := trace.NewBuilderWindow(trace.DefaultMaxWindow)
		for it := 0; it < 20; it++ {
			for _, leaf := range []*trace.RSD{
				{Op: mpi.OpSend, Site: 1, CommSize: n, Peer: peer(1), Tag: 7, Size: 1024, Root: -1},
				{Op: mpi.OpRecv, Site: 2, CommSize: n, Peer: peer(n - 1), Tag: 7, Size: 1024, Root: -1},
				{Op: mpi.OpAllreduce, Site: 3, CommSize: n, Peer: trace.NoParam, Size: 8, Root: -1},
			} {
				leaf.Ranks = taskset.Of(r)
				leaf.SetComputeSample(1.0 + float64(r))
				bld.Append(leaf)
			}
		}
		return bld.Seq()
	}
	comms := func() map[int][]int {
		world := make([]int, n)
		for i := range world {
			world[i] = i
		}
		return map[int][]int{0: world}
	}
	for _, leg := range []struct {
		name  string
		build func() [][]trace.Node
	}{
		// The Collector's call: a sequence per rank, consumed.
		{"private", func() [][]trace.Node {
			seqs := make([][]trace.Node, n)
			for r := range seqs {
				seqs[r] = stream(r, func(off int) trace.Param { return trace.AbsParam((r + off) % n) })
			}
			return seqs
		}},
		// Algorithm 1's call: four sequences for 64 ranks, each named by
		// every fourth rank and only read.
		{"shared", func() [][]trace.Node {
			seqs := make([][]trace.Node, n)
			for r := range seqs {
				if r < 4 {
					seqs[r] = stream(r, trace.RelParam)
				} else {
					seqs[r] = seqs[r%4]
				}
			}
			return seqs
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := trace.MergeRankSeqsOwned(n, comms(), leg.build())
				if len(tr.Groups) != 1 {
					b.Fatalf("expected 1 group, got %d", len(tr.Groups))
				}
			}
		})
	}
}

// BenchmarkGeneratePipeline measures the full generation pipeline per app
// (trace to program), and on the same program the text round trip that
// benchgen | ncrun adds (print+parse).
func BenchmarkGeneratePipeline(b *testing.B) {
	for _, c := range generateCases("bt", "lu", "sweep3d") {
		run, err := harness.TraceApp(c.app, c.cfg, netmodel.Ideal())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Generate(run.Trace, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/print+parse", func(b *testing.B) {
			prog, err := core.Generate(run.Trace, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conceptual.Parse(conceptual.Print(prog)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRender measures the three printers alone on the ledger's
// gen-irregular input (sweep3d, 64 ranks, class A): the program and the
// prepared trace are built once, each iteration renders one language.
// ns/stmt and allocs/stmt are per statement of the coNCePTuaL program.
func BenchmarkRender(b *testing.B) {
	run, err := harness.TraceApp("sweep3d", apps.NewConfig(64, apps.ClassA), netmodel.Ideal())
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := core.Prepare(run.Trace, &core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := core.Generate(prepared, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, lang := range []struct {
		name   string
		render func() (string, error)
	}{
		{"conceptual", func() (string, error) { return conceptual.Print(prog), nil }},
		{"c", func() (string, error) { return conceptual.GenerateC(prog), nil }},
		{"go", func() (string, error) {
			g := core.NewGoGenerator()
			if err := core.Traverse(prepared, g); err != nil {
				return "", err
			}
			return g.Source()
		}},
	} {
		b.Run(lang.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lang.render(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			stmts := float64(b.N) * float64(prog.StmtCount())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/stmts, "ns/stmt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/stmts, "allocs/stmt")
		})
	}
}

// BenchmarkInterpreter measures coNCePTuaL execution speed (events/sec of
// the simulated runtime).
func BenchmarkInterpreter(b *testing.B) {
	prog := &conceptual.Program{NumTasks: 8, Stmts: []conceptual.Stmt{
		&conceptual.LoopStmt{Count: 100, Body: []conceptual.Stmt{
			&conceptual.RecvStmt{Who: conceptual.AllTasks, Async: true, Size: 1024, Source: conceptual.RelRank(7)},
			&conceptual.SendStmt{Who: conceptual.AllTasks, Async: true, Size: 1024, Dest: conceptual.RelRank(1)},
			&conceptual.AwaitStmt{Who: conceptual.AllTasks},
		}},
	}}
	for i := 0; i < b.N; i++ {
		if _, err := conceptual.Execute(prog, 8, netmodel.BlueGeneL()); err != nil {
			b.Fatal(err)
		}
	}
}

// runWorldBody is the BenchmarkRunWorld workload: a collective-heavy mix
// (the fast-path target) interleaved with neighbor point-to-point traffic
// through the mailbox, the same shape the NPB kernels drive at scale.
func runWorldBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.World()
		for i := 0; i < 50; i++ {
			r.Allreduce(w, 64)
			r.Barrier(w)
			peer := (r.Rank() + 1) % n
			from := (r.Rank() + n - 1) % n
			sreq := r.Isend(w, peer, 0, 1024)
			rreq := r.Irecv(w, from, 0, 1024)
			r.Waitall(rreq, sreq)
			r.Bcast(w, 0, 512)
			r.Reduce(w, 0, 128)
		}
	}
}

// BenchmarkRunWorld measures the simulated runtime itself — the substrate
// every experiment stands on — at 64 and 256 ranks on the event engine (the
// "fast" legs). The telemetry/fast pairs measure the overhead of enabled
// instrumentation, which TestTelemetryOverheadGuard bounds.
func BenchmarkRunWorld(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("fast-%dranks", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpi.Run(n, netmodel.BlueGeneL(), runWorldBody(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("telemetry-%dranks", n), func(b *testing.B) {
			telemetry.Enable()
			defer telemetry.Disable()
			for i := 0; i < b.N; i++ {
				if _, err := mpi.Run(n, netmodel.BlueGeneL(), runWorldBody(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("critpath-%dranks", n), func(b *testing.B) {
			// The critpath/fast pairs at equal rank counts are the
			// profiler-enabled overhead (last recorded: +8 % at 64 ranks,
			// +19 % at 256, on this zero-compute workload); the graph
			// memory metric is the recording's per-run footprint ceiling.
			// One graph across iterations: arm() truncates per run but keeps
			// slice capacity, the steady state a pooled daemon world sees.
			g := mpi.NewDepGraph()
			for i := 0; i < b.N; i++ {
				if _, err := mpi.Run(n, netmodel.BlueGeneL(), runWorldBody(n),
					mpi.WithCausalProfile(g)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.Total()), "deprecords/run")
			b.ReportMetric(float64(g.Total())*float64(unsafe.Sizeof(mpi.DepRecord{})), "graphbytes/run")
		})
	}
}

// rankScalingBody is the BenchmarkRankScaling workload: a fixed number of
// nearest-neighbor ring exchange + collective steps, so per-rank work is
// constant and wall clock isolates how the runtime itself scales with world
// size. Kept lighter than runWorldBody because one iteration runs worlds up
// to 262144 ranks.
func rankScalingBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.World()
		for i := 0; i < 4; i++ {
			peer := (r.Rank() + 1) % n
			from := (r.Rank() + n - 1) % n
			sreq := r.Isend(w, peer, i, 1024)
			rreq := r.Irecv(w, from, i, 1024)
			r.Waitall(rreq, sreq)
			r.Compute(5)
			r.Allreduce(w, 8)
		}
		r.Barrier(w)
	}
}

// ringStream is rankScalingBody compiled by hand into the stackless op
// representation: the identical ring-exchange schedule, delivered one RankOp
// at a time so a rank costs a cursor and a mailbox rather than a goroutine
// and a stack. The 1M-rank point of the scaling curve runs on this.
type ringStream struct {
	n, rank, step, idx int
}

const ringSteps = 4

func (s *ringStream) Next(_ *mpi.Rank, op *mpi.RankOp) bool {
	if s.step < ringSteps {
		switch s.idx {
		case 0:
			*op = mpi.RankOp{Op: mpi.OpIsend, Peer: (s.rank + 1) % s.n, Tag: s.step, Size: 1024}
		case 1:
			*op = mpi.RankOp{Op: mpi.OpIrecv, Peer: (s.rank + s.n - 1) % s.n, Tag: s.step, Size: 1024}
		case 2:
			*op = mpi.RankOp{Op: mpi.OpWaitall}
		case 3:
			*op = mpi.RankOp{Op: mpi.OpAllreduce, ComputeUS: 5, Size: 8}
		}
		if s.idx++; s.idx == 4 {
			s.idx = 0
			s.step++
		}
		return true
	}
	if s.idx == 0 {
		s.idx++
		*op = mpi.RankOp{Op: mpi.OpBarrier}
		return true
	}
	return false
}

// rankScalingEventSizes is the 1k -> 1M curve the discrete-event engine is
// measured on: stackless replay ranks on a pooled world, the configuration a
// long-lived host (harness worker, benchd job body) actually runs. The cold
// series re-runs the same workload on a fresh world each time, so the
// cold-vs-warm gap is the pooling win.
var (
	rankScalingEventSizes = []int{1024, 4096, 16384, 65536, 262144, 1048576}
	rankScalingColdSizes  = []int{1024, 4096, 16384, 65536}
)

// runScalingStackless runs the ring workload as stackless cursors, optionally
// on a pooled engine.
func runScalingStackless(n int, eng *mpi.Engine) error {
	opts := []mpi.Option{mpi.WithTimeout(30 * time.Minute)}
	if eng != nil {
		opts = append(opts, mpi.WithEngine(eng))
	}
	_, err := mpi.RunStackless(n, netmodel.BlueGeneL(), func(rank int) mpi.OpStream {
		return &ringStream{n: n, rank: rank}
	}, opts...)
	return err
}

// BenchmarkRankScaling measures the rank-scaling curve behind
// service.MaxRunnableRanks: ns/op and allocs/op versus world size for
// the warm (pooled, stackless) event engine at 1k -> 1M ranks and the cold
// event engine. Each warm series point runs one untimed warmup so the
// measured iteration sees the steady state a long-lived host sees — without
// it -benchtime=1x conflates world construction with execution. Run with
// `-benchtime 1x -timeout 60m`: one world per data point, since a 1M-rank
// world is minutes.
func BenchmarkRankScaling(b *testing.B) {
	// The pool-less series run first, before the warm series fills the
	// engine with worlds up to 1M ranks — a resident multi-GiB pool would
	// tax every later GC cycle and bleed into the cold measurements.
	for _, n := range rankScalingColdSizes {
		b.Run(fmt.Sprintf("eventcold-%dranks", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runScalingStackless(n, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, n := range rankScalingEventSizes {
		b.Run(fmt.Sprintf("event-%dranks", n), func(b *testing.B) {
			b.ReportAllocs()
			if err := runScalingStackless(n, eng); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runScalingStackless(n, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// barrierStream is the minimal stackless body: one barrier, then done.
type barrierStream struct{ done bool }

func (s *barrierStream) Next(_ *mpi.Rank, op *mpi.RankOp) bool {
	if s.done {
		return false
	}
	s.done = true
	*op = mpi.RankOp{Op: mpi.OpBarrier}
	return true
}

// BenchmarkWorldSetup isolates the cost the pool removes: a 65536-rank world
// running a barrier-only stackless body — execution is a few ops per rank,
// so the measurement is dominated by standing the world up — built fresh
// each iteration (cold) versus reset from the pool (warm: rank structs,
// mailboxes with their source indexes, arenas and the scheduler slab all
// survive). The acceptance bar for the pool is warm at least 2x cheaper
// than cold at this size (last recorded: 102 ms cold, 33 ms warm).
func BenchmarkWorldSetup(b *testing.B) {
	const n = 65536
	progFor := func(rank int) mpi.OpStream { return &barrierStream{} }
	opts := []mpi.Option{mpi.WithTimeout(30 * time.Minute)}
	b.Run(fmt.Sprintf("cold-%dranks", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mpi.RunStackless(n, netmodel.BlueGeneL(), progFor, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("warm-%dranks", n), func(b *testing.B) {
		b.ReportAllocs()
		eng := mpi.NewEngine()
		defer eng.Close()
		wopts := append([]mpi.Option{mpi.WithEngine(eng)}, opts...)
		if _, err := mpi.RunStackless(n, netmodel.BlueGeneL(), progFor, wopts...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mpi.RunStackless(n, netmodel.BlueGeneL(), progFor, wopts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// incastBody is the BenchmarkIncastContention workload: every rank streams k
// eager messages at rank 0 — the master/worker shape whose flow-control
// stalls park many senders on one mailbox. The event engine keeps one credit
// waiter per source slot and wakes exactly the sender a drain releases, so a
// drain costs O(1) however many senders wait. With wildcard set, rank 0
// receives with AnySource instead of cycling the sources — the paper's §4.4
// pattern — exercising the mailbox's wildcard candidate heap against a
// standing unexpected backlog.
func incastBody(k, size int, wildcard bool) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.World()
		n := r.Size()
		if r.Rank() == 0 {
			if wildcard {
				for i := 0; i < (n-1)*k; i++ {
					r.Recv(w, mpi.AnySource, 0, size)
				}
			} else {
				for i := 0; i < k; i++ {
					for s := 1; s < n; s++ {
						r.Recv(w, s, 0, size)
					}
				}
			}
		} else {
			for i := 0; i < k; i++ {
				r.Send(w, 0, 0, size)
			}
		}
	}
}

// BenchmarkIncastContention measures the incast workload versus GOMAXPROCS
// (run with -cpu 1,4 -benchtime 3x): the engine runs one rank at a time, so
// its cost should not move with the number of Ps.
func BenchmarkIncastContention(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, shape := range []string{"direct", "wildcard"} {
			b.Run(fmt.Sprintf("event-%s-%dranks", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mpi.Run(n, netmodel.BlueGeneL(),
						incastBody(128, 256, shape == "wildcard")); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// perEvent runs fn b.N times after one untimed warm-up (so a pooled engine
// serves every timed run from a warm world, as the ledger's ops are) and
// reports what one event of the run costs: ns/event, and B/event from the
// allocator's running total.
func perEvent(b *testing.B, events int, fn func() error) {
	b.Helper()
	if err := fn(); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/event")
}

// BenchmarkInterpExecute measures coNCePTuaL program execution on stackless
// cursors (what Execute runs, on a pooled engine as the ledger's exec-whatif
// ops run it), on a program large enough that per-iteration statement
// dispatch dominates.
func BenchmarkInterpExecute(b *testing.B) {
	prog := conceptualReprProgram(16)
	model := netmodel.BlueGeneL()
	prof := mpip.NewProfile()
	if _, err := conceptual.Execute(prog, 16, model,
		conceptual.WithMPIOptions(mpi.WithTracer(prof.TracerFor))); err != nil {
		b.Fatal(err)
	}
	events := 0
	for op := 0; op < mpi.NumOps; op++ {
		events += int(prof.Count(mpi.Op(op)))
	}
	eng := mpi.NewEngine()
	defer eng.Close()
	b.Run("cursor", func(b *testing.B) {
		perEvent(b, events, func() error {
			_, err := conceptual.Execute(prog, 16, model, conceptual.WithMPIOptions(mpi.WithEngine(eng)))
			return err
		})
	})
}

// splitRingBody is a test-local kernel whose point-to-point traffic runs on
// split communicators: the world splits by parity, each half ranked in
// descending world order (so neither group is an identity and every peer
// translation takes the index's map form), then rings on its half.
func splitRingBody(iters int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		sub := r.CommSplit(r.World(), r.Rank()%2, -r.Rank())
		me, _ := sub.CommRank(r.Rank())
		sz := sub.Size()
		for i := 0; i < iters; i++ {
			r.Compute(5)
			rq := r.Irecv(sub, (me+sz-1)%sz, 0, 1024)
			sq := r.Isend(sub, (me+1)%sz, 0, 1024)
			r.Waitall(rq, sq)
		}
		r.Allgatherv(sub, 8*(me+1))
	}
}

// traceBody runs body on n ranks under a Collector and returns its trace.
func traceBody(n int, model *netmodel.Model, body func(*mpi.Rank)) (*trace.Trace, error) {
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, model, body, mpi.WithTracer(col.TracerFor)); err != nil {
		return nil, err
	}
	return col.Trace(), nil
}

// BenchmarkReplay measures trace re-execution (the ScalaReplay role in the
// Section 5.2 equivalence checks, and half of every exec-whatif op) on a
// pooled engine, as the ledger replays: a BT trace, the ledger's ring@1024
// (the leg its op_p50_ms can be traced to), the split-communicator kernel,
// whose peers translate through the index's maps, and LU: nine groups,
// partial rank sets and 44,800 ANY_SOURCE receives.
func BenchmarkReplay(b *testing.B) {
	model := netmodel.BlueGeneL()
	app := func(name string, n int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			run, err := harness.TraceApp(name, apps.NewConfig(n, apps.ClassS), model)
			if err != nil {
				return nil, err
			}
			return run.Trace, nil
		}
	}
	for _, leg := range []struct {
		name  string
		trace func() (*trace.Trace, error)
	}{
		{"bt-64", app("bt", 64)},
		{"ring-1024", app("ring", 1024)},
		{"split-64", func() (*trace.Trace, error) { return traceBody(64, model, splitRingBody(200)) }},
		{"lu-64", app("lu", 64)},
	} {
		var tr *trace.Trace // traced once, not once per b.N probe
		b.Run(leg.name, func(b *testing.B) {
			if tr == nil {
				var err error
				if tr, err = leg.trace(); err != nil {
					b.Fatal(err)
				}
			}
			eng := mpi.NewEngine()
			defer eng.Close()
			perEvent(b, tr.TotalEvents(), func() error {
				_, err := replay.Replay(tr, model, mpi.WithEngine(eng))
				return err
			})
		})
	}
}

// BenchmarkNoiseSensitivity measures generated-benchmark accuracy under
// platform noise (the real-machine condition of the paper's evaluation);
// the errpct metrics show accuracy at 0% and 5% noise.
func BenchmarkNoiseSensitivity(b *testing.B) {
	var quiet, noisy float64
	for i := 0; i < b.N; i++ {
		points, err := harness.NoiseSensitivity([]string{"bt"}, 16, apps.ClassW, []float64{0, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		quiet, noisy = points[0].ErrPct, points[1].ErrPct
	}
	b.ReportMetric(quiet, "errpct-quiet")
	b.ReportMetric(noisy, "errpct-5%noise")
}

// BenchmarkOverlapStudy measures the second Section 5.4 what-if: the payoff
// of overlapping communication with computation, applied as an AST
// transform on the generated benchmark.
func BenchmarkOverlapStudy(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		points, err := harness.OverlapStudy([]string{"bt"}, 16, apps.ClassA, netmodel.BlueGeneL())
		if err != nil {
			b.Fatal(err)
		}
		speedup = points[0].SpeedupPct
	}
	b.ReportMetric(speedup, "speedup-pct")
}

// multiWorldSizes is one size-cycle of the BenchmarkMultiWorld mixed batch:
// small, medium and large worlds interleaved (a 256-rank world is ~16x a
// 16-rank one), so a static partition of the batch would leave a P idle and
// only handing out one world at a time keeps both busy.
var multiWorldSizes = []int{16, 64, 256}

// multiWorldBatch drives `count` whole worlds against a shared (warm) engine
// on GOMAXPROCS goroutines pulling an index cursor — the harness fan-out
// shape — and reports the lowest-index failure. sizes cycles; a
// single-element slice gives a uniform batch.
func multiWorldBatch(count int, sizes []int, eng *mpi.Engine) error {
	errs := make([]error, count)
	runConcurrently(runtime.GOMAXPROCS(0), count, func(i int) {
		n := sizes[i%len(sizes)]
		_, errs[i] = mpi.Run(n, netmodel.BlueGeneL(), rankScalingBody(n), mpi.WithEngine(eng))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkMultiWorld is the multi-world throughput micro-benchmark:
// aggregate worlds/sec when many independent worlds run side by side on one
// shared engine, one goroutine per P (run it with -cpu 1,2). Each
// sub-benchmark warms the engine's world classes untimed so the measured
// batches see the steady state a long-lived host sees. The pooled-<N>ranks
// series are uniform batches; the mixed series (labelled by its 16+64+256
// size-cycle sum) is the imbalanced one.
func BenchmarkMultiWorld(b *testing.B) {
	const batch = 24
	run := func(b *testing.B, sizes []int) {
		b.ReportAllocs()
		eng := mpi.NewEngine()
		defer eng.Close()
		if err := multiWorldBatch(batch, sizes, eng); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := multiWorldBatch(batch, sizes, eng); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(batch)*float64(b.N)/secs, "worlds/sec")
		}
	}
	for _, n := range multiWorldSizes {
		n := n
		b.Run(fmt.Sprintf("pooled-%dranks", n), func(b *testing.B) {
			run(b, []int{n})
		})
	}
	var cycle int
	for _, n := range multiWorldSizes {
		cycle += n
	}
	b.Run(fmt.Sprintf("mixed-%dranks", cycle), func(b *testing.B) {
		run(b, multiWorldSizes)
	})
}

// conceptualReprProgram is the BenchmarkInterpExecute workload: an async
// ring, await, compute and reduce in a hot loop, sized so per-statement
// dispatch dominates. RelRank(n-1) keeps the receive the ring predecessor at
// any world size.
func conceptualReprProgram(n int) *conceptual.Program {
	return &conceptual.Program{Stmts: []conceptual.Stmt{
		&conceptual.LoopStmt{Count: 200, Body: []conceptual.Stmt{
			&conceptual.RecvStmt{Who: conceptual.AllTasks, Async: true, Size: 1024, Source: conceptual.RelRank(n - 1)},
			&conceptual.SendStmt{Who: conceptual.AllTasks, Async: true, Size: 1024, Dest: conceptual.RelRank(1)},
			&conceptual.AwaitStmt{Who: conceptual.AllTasks},
			&conceptual.ComputeStmt{Who: conceptual.AllTasks, USecs: 5},
			&conceptual.ReduceStmt{Srcs: conceptual.AllTasks, Dsts: conceptual.AllTasks, Size: 64},
		}},
	}}
}
