// Package harness drives the paper's evaluation (Section 5): it traces the
// workload suite, generates coNCePTuaL benchmarks, runs them, and produces
// the data behind every table and figure — communication correctness
// (Section 5.2), timing accuracy (Figure 6), the what-if acceleration study
// (Figure 7), and the trace/code-size scaling results that back the Section
// 2 claims. cmd/experiments and the repository's benchmarks are thin
// wrappers over this package.
package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// AppRun is the result of tracing one application execution.
type AppRun struct {
	App     string
	Config  apps.Config
	Model   *netmodel.Model
	Trace   *trace.Trace
	Profile *mpip.Profile
	// ElapsedUS is the original application's virtual run time.
	ElapsedUS float64
}

// TraceApp runs the named application under ScalaTrace-style collection and
// mpiP-style profiling, returning the trace, the profile and the original
// run time. Additional per-rank tracer factories (e.g. mpi.TimelineTracer
// for a -timeline export) compose with the built-in pair via MultiTracer.
func TraceApp(name string, cfg apps.Config, model *netmodel.Model, extra ...func(rank int) mpi.Tracer) (*AppRun, error) {
	return TraceAppContext(context.Background(), name, cfg, model, extra...)
}

// TraceAppContext is TraceApp bounded by ctx: when ctx is cancelled the
// simulated run is torn down (no leaked rank goroutines) and the context
// error is returned. Service jobs run their whole pipeline under one ctx.
func TraceAppContext(ctx context.Context, name string, cfg apps.Config, model *netmodel.Model, extra ...func(rank int) mpi.Tracer) (*AppRun, error) {
	return traceApp(ctx, name, cfg, model, nil, extra...)
}

// traceApp is the shared implementation: extraOpts threads additional mpi
// options (e.g. the causal profiler) into the run.
func traceApp(ctx context.Context, name string, cfg apps.Config, model *netmodel.Model, extraOpts []mpi.Option, extra ...func(rank int) mpi.Tracer) (*AppRun, error) {
	app := apps.ByName(name)
	if app == nil {
		return nil, fmt.Errorf("harness: unknown app %q (have %v)", name, apps.Names())
	}
	if !app.ValidRanks(cfg.N) {
		return nil, fmt.Errorf("harness: %s does not support %d ranks", name, cfg.N)
	}
	col := trace.NewCollector(cfg.N)
	prof := mpip.NewProfile()
	tracers := func(rank int) mpi.Tracer {
		mt := mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
		for _, f := range extra {
			mt = append(mt, f(rank))
		}
		return mt
	}
	opts := append([]mpi.Option{mpi.WithEngine(sharedEngine), mpi.WithTracer(tracers), mpi.WithContext(ctx)}, extraOpts...)
	res, err := mpi.Run(cfg.N, model, app.Body(cfg), opts...)
	if err != nil {
		return nil, fmt.Errorf("harness: running %s: %w", name, err)
	}
	return &AppRun{
		App:       name,
		Config:    cfg,
		Model:     model,
		Trace:     col.Trace(),
		Profile:   prof,
		ElapsedUS: res.ElapsedUS,
	}, nil
}

// BenchmarkRun is the result of executing a generated benchmark.
type BenchmarkRun struct {
	Program   *conceptual.Program
	Profile   *mpip.Profile
	Trace     *trace.Trace
	ElapsedUS float64
}

// GenerateAndRun converts a trace into a coNCePTuaL benchmark, executes it
// on the given platform model, and returns the program together with its
// profile, re-trace and run time — the full Figure 1 pipeline plus the
// instrumented execution of Section 5.2.
func GenerateAndRun(tr *trace.Trace, model *netmodel.Model) (*BenchmarkRun, error) {
	prog, err := core.Generate(tr, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: generation failed: %w", err)
	}
	return RunProgram(prog, tr.N, model)
}

// RunProgram executes a coNCePTuaL program under profiling and re-tracing.
func RunProgram(prog *conceptual.Program, n int, model *netmodel.Model) (*BenchmarkRun, error) {
	return runProgram(prog, n, model, nil)
}

// runProgram is RunProgram with additional mpi options threaded through.
func runProgram(prog *conceptual.Program, n int, model *netmodel.Model, extraOpts []mpi.Option) (*BenchmarkRun, error) {
	prof := mpip.NewProfile()
	col := trace.NewCollector(n)
	tracers := func(rank int) mpi.Tracer {
		return mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
	}
	opts := append([]mpi.Option{mpi.WithEngine(sharedEngine), mpi.WithTracer(tracers)}, extraOpts...)
	res, err := conceptual.Execute(prog, n, model, conceptual.WithMPIOptions(opts...))
	if err != nil {
		return nil, fmt.Errorf("harness: executing generated benchmark: %w", err)
	}
	return &BenchmarkRun{
		Program:   prog,
		Profile:   prof,
		Trace:     col.Trace(),
		ElapsedUS: res.ElapsedUS,
	}, nil
}
