package service

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	ctrPipelineRuns   = telemetry.NewCounter("service.pipeline_runs")
	ctrPipelineErrors = telemetry.NewCounter("service.pipeline_errors")
)

// runPipelineFn is the indirection the server calls; tests swap it to inject
// pipeline failures and panics without standing up a hostile workload.
var runPipelineFn = runPipeline

// Pipeline stage names, in execution order. They double as job progress
// labels and as telemetry region names, so a job's current stage is visible
// both on GET /v1/jobs/{id} and as a span on the /timeline export.
const (
	StageTrace    = "service.trace"
	StageVerify   = "service.verify"
	StageGenerate = "service.generate"
	StageRender   = "service.render"
	StagePredict  = "service.predict"
)

// runPipeline executes one generation request end to end under ctx: obtain a
// trace (run the app, or decode the upload), generate the coNCePTuaL program
// (Algorithms 2 and 1 inside core.Prepare), render the requested target
// language, and execute the generated benchmark on the requested model for
// the predicted timing and the mpiP-style profile.
//
// The app path deliberately round-trips the collected trace through
// Encode/Decode before generating: that is exactly what `tracegen | benchgen`
// does, so the served source is byte-identical to the CLI pipeline's output
// (the parity tests pin this).
func runPipeline(ctx context.Context, req *Request, progress func(stage string)) (*Result, error) {
	if progress == nil {
		progress = func(string) {}
	}
	ctrPipelineRuns.Inc()
	res, err := runStages(ctx, req, progress)
	if err != nil {
		ctrPipelineErrors.Inc()
		return nil, err
	}
	return res, nil
}

func runStages(ctx context.Context, req *Request, progress func(string)) (*Result, error) {
	model, err := netmodel.Lookup(req.Model)
	if err != nil {
		return nil, err
	}

	tr, err := obtainTrace(ctx, req, model, progress)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Verification runs on the trace as collected — wildcards intact —
	// before Algorithm 2 resolves them inside core.Prepare: that is the
	// nondeterminism the checker explores. The report rides on the result
	// (verdict, resolver cross-validation, replay-confirmed counterexample
	// if one exists); a detected deadlock is a finding, not a pipeline
	// failure, so generation still proceeds.
	var verifyRep *mpnet.Report
	if req.Verify {
		progress(StageVerify)
		endVerify := telemetry.Region(StageVerify)
		verifyRep, err = mpnet.VerifyWithReplayContext(ctx, tr, nil, model)
		endVerify()
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !verifyRep.Passed() {
			// A trace the checker rejects has no executable benchmark:
			// Algorithm 2 would refuse it (or, worse, its resolution could
			// deadlock). The job still succeeds — the verdict and its
			// replay-confirmed counterexample ARE the artifact.
			return &Result{
				Key:         req.Key(),
				App:         req.App,
				N:           tr.N,
				Lang:        req.Lang,
				Verify:      verifyRep,
				TraceEvents: tr.TotalEvents(),
				TraceNodes:  tr.NodeCount(),
			}, nil
		}
	}

	// Algorithms 2 and 1 run once, inside the pipeline; every language renders
	// from what it derived.
	progress(StageGenerate)
	endGen := telemetry.Region(StageGenerate)
	pipe := core.NewPipeline(tr, &core.Options{
		Comments: []string{fmt.Sprintf("source trace: %d ranks, %d events", tr.N, tr.TotalEvents())},
	})
	prog, err := pipe.Program()
	endGen()
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	progress(StageRender)
	endRender := telemetry.Region(StageRender)
	src, err := pipe.Render(req.Lang)
	endRender()
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Predicted timing comes from executing the generated benchmark itself
	// (not the original app) on the requested model — the coNCePTuaL program
	// is the executable specification whichever language was rendered.
	progress(StagePredict)
	endPredict := telemetry.Region(StagePredict)
	prof := mpip.NewProfile()
	// The causal profiler rides along on every prediction: the dependency
	// graph is bounded, observation-only, and lets /v1/jobs/{id}/profile
	// answer what dominated the predicted virtual time.
	graph := mpi.NewDepGraph()
	run, err := conceptual.Execute(prog, tr.N, model,
		conceptual.WithMPIOptions(mpi.WithTracer(prof.TracerFor), mpi.WithContext(ctx),
			mpi.WithCausalProfile(graph),
			// Job bodies share the harness world pool: a daemon serving repeated
			// requests at the same rank count pays world setup once, not per job.
			mpi.WithEngine(harness.SharedEngine())))
	endPredict()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("predict: %w", err)
	}

	return &Result{
		Key:         req.Key(),
		App:         req.App,
		N:           tr.N,
		Lang:        req.Lang,
		Source:      src,
		PerRankUS:   run.PerTaskUS,
		ElapsedUS:   run.ElapsedUS,
		Profile:     prof.String(),
		CritPath:    critpath.Analyze(graph),
		Verify:      verifyRep,
		TraceEvents: tr.TotalEvents(),
		TraceNodes:  tr.NodeCount(),
	}, nil
}

// obtainTrace produces the canonical input trace: decoded from the upload,
// or collected by running the named app and round-tripped through the codec.
func obtainTrace(ctx context.Context, req *Request, model *netmodel.Model, progress func(string)) (*trace.Trace, error) {
	progress(StageTrace)
	defer telemetry.Region(StageTrace)()

	if req.Trace != "" {
		// The server validates uploads at admission (and keeps the decode);
		// re-validate here so a direct runPipeline caller gets the same
		// runnable-size guarantee before a world is built.
		if req.decoded == nil {
			if err := req.validateTrace(); err != nil {
				return nil, err
			}
		}
		return req.decoded, nil
	}

	class, err := apps.ParseClass(req.Class)
	if err != nil {
		return nil, err
	}
	run, err := harness.TraceAppContext(ctx, req.App, apps.NewConfig(req.N, class), model)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	tr, err := trace.Decode(&buf)
	if err != nil {
		return nil, fmt.Errorf("canonicalize trace: %w", err)
	}
	return tr, nil
}
