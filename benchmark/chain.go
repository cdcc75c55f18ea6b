package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// kernel names one application run: app at n ranks on a problem class.
type kernel struct {
	app   string
	n     int
	class apps.Class
}

func (k kernel) String() string        { return fmt.Sprintf("%s@%d/%c", k.app, k.n, k.class) }
func (k kernel) cfg() apps.Config      { return apps.NewConfig(k.n, k.class) }
func (k kernel) body() func(*mpi.Rank) { return apps.ByName(k.app).Body(k.cfg()) }

func pooled() mpi.Option { return mpi.WithEngine(harness.SharedEngine()) }

// shuffled returns, for each of ops ops, a seeded order of n items.
func shuffled(seed int64, ops, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, ops)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}

// chainOut is what one kernel's trip through the chain produced, kept for
// the output check.
type chainOut struct {
	k           kernel
	origProfile *mpip.Profile
	origTrace   *trace.Trace
	origUS      float64
	src         string
	parsed      *conceptual.Program
	genProfile  *mpip.Profile // nil: the op executed without a profiler
	genTrace    *trace.Trace
	genUS       float64
	// otherSrc holds the other target languages' renderings (gen-irregular).
	otherSrc []string
}

// record folds the kernel's outputs into the op's totals.
func (o *chainOut) record(c *opCtx) {
	c.sourceBytes += len(o.src)
	c.timingError(o.genUS, o.origUS)
	c.digestString(o.src)
	for _, s := range o.otherSrc {
		c.digestString(s)
	}
	c.digestFloats(o.origUS, o.genUS)
}

// check applies the paper's Section 5.2 criteria to one kernel's outputs.
func (o *chainOut) check(model *netmodel.Model) error {
	if again := conceptual.Print(o.parsed); again != o.src {
		return fmt.Errorf("%v: Parse(Print(p)) does not re-print identically", o.k)
	}
	genProfile, genTrace := o.genProfile, o.genTrace
	if genProfile == nil {
		run, err := harness.RunProgram(o.parsed, o.k.n, model)
		if err != nil {
			return fmt.Errorf("%v: %w", o.k, err)
		}
		genProfile, genTrace = run.Profile, run.Trace
	}
	if diffs := profileDiffs(o.origProfile, genProfile, o.k.n); len(diffs) > 0 {
		return fmt.Errorf("%v: profiles differ: %s", o.k, strings.Join(diffs, "; "))
	}
	reference := o.origTrace
	if wildcard.Present(reference) {
		var err error
		if reference, err = wildcard.Resolve(reference); err != nil {
			return fmt.Errorf("%v: resolving reference: %w", o.k, err)
		}
	}
	if err := replay.Equivalent(reference, genTrace); err != nil {
		return fmt.Errorf("%v: %w", o.k, err)
	}
	return nil
}

// profileDiffs compares the canonical communication profiles of an original
// run and its generated benchmark by the Section 5.2 rule: counts match
// exactly; byte rows may differ by the integer rounding that averaging
// v-collective sizes introduces (one byte per substituted event, or 1 %).
func profileDiffs(orig, gen *mpip.Profile, n int) []string {
	a, b := harness.Canonical(orig, n, true), harness.Canonical(gen, n, false)
	countRow := map[harness.CanonKey]harness.CanonKey{
		harness.CanonAlltoallB: harness.CanonAlltoalls,
		harness.CanonReduceB:   harness.CanonReduces,
		harness.CanonBcastB:    harness.CanonBcasts,
		harness.CanonAllredB:   harness.CanonAllreduces,
	}
	keys := map[harness.CanonKey]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		x, y := a[k], b[k]
		if x == y {
			continue
		}
		if strings.Contains(string(k), "bytes") {
			slack := 1.0
			if cr, ok := countRow[k]; ok {
				slack += b[cr]
			}
			if math.Abs(x-y) <= slack || (x != 0 && math.Abs(x-y)/math.Abs(x) <= 0.01) {
				continue
			}
		}
		diffs = append(diffs, fmt.Sprintf("%s: original %.0f vs generated %.0f", k, x, y))
	}
	sort.Strings(diffs)
	return diffs
}

// tracers attaches a trace collector and an mpiP-style profile to a run.
func tracers(n int) (*trace.Collector, *mpip.Profile, mpi.Option) {
	col, prof := trace.NewCollector(n), mpip.NewProfile()
	return col, prof, mpi.WithTracer(func(rank int) mpi.Tracer {
		return mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
	})
}

// encode renders a trace in the text format.
func encode(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// traceApp is the chain's first step with tracing off: exactly what
// tracegen does.
func traceApp(k kernel, model *netmodel.Model) (*chainOut, []byte, error) {
	run, err := harness.TraceApp(k.app, k.cfg(), model)
	if err != nil {
		return nil, nil, err
	}
	text, err := encode(run.Trace)
	if err != nil {
		return nil, nil, err
	}
	return &chainOut{k: k, origProfile: run.Profile, origTrace: run.Trace, origUS: run.ElapsedUS}, text, nil
}

// traceAppSpans is traceApp decomposed into the public calls TraceApp makes.
func traceAppSpans(c *opCtx, k kernel, model *netmodel.Model) (*chainOut, []byte, error) {
	col, prof, opt := tracers(k.n)
	done := c.span("app.traced_run")
	res, err := mpi.Run(k.n, model, k.body(), pooled(), opt)
	done()
	if err != nil {
		return nil, nil, err
	}
	done = c.span("trace.finalize_merge")
	tr := col.Trace()
	done()
	done = c.span("trace.encode")
	text, err := encode(tr)
	done()
	if err != nil {
		return nil, nil, err
	}
	return &chainOut{k: k, origProfile: prof, origTrace: tr, origUS: res.ElapsedUS}, text, nil
}

// prepareSpans is core.Prepare with each algorithm in its own span.
func prepareSpans(c *opCtx, tr *trace.Trace) (*trace.Trace, error) {
	done := c.span("wildcard.resolve")
	if wildcard.Present(tr) {
		resolved, err := wildcard.Resolve(tr)
		if err != nil {
			return nil, err
		}
		tr = resolved
	}
	done()
	done = c.span("align.align")
	defer done()
	if align.Needed(tr) {
		return align.Align(tr)
	}
	return tr, nil
}

// generate is benchgen: trace text to parsed coNCePTuaL program.
func generate(c *opCtx, o *chainOut, text []byte) (*trace.Trace, error) {
	if !c.traced() {
		tr, err := trace.Decode(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		prog, err := core.Generate(tr, nil)
		if err != nil {
			return nil, err
		}
		o.src = conceptual.Print(prog)
		o.parsed, err = conceptual.Parse(o.src)
		return tr, err
	}
	done := c.span("trace.decode")
	tr, err := trace.Decode(bytes.NewReader(text))
	done()
	if err != nil {
		return nil, err
	}
	c.count("trace.events", float64(tr.TotalEvents()))
	c.count("trace.nodes", float64(tr.NodeCount()))
	c.count("trace.bytes", float64(len(text)))
	prepared, err := prepareSpans(c, tr)
	if err != nil {
		return nil, err
	}
	done = c.span("core.traverse")
	g := core.NewConceptualGenerator(&core.Options{})
	err = core.Traverse(prepared, g)
	var prog *conceptual.Program
	if err == nil {
		prog, err = g.Program()
	}
	done()
	if err != nil {
		return nil, err
	}
	c.count("core.stmts", float64(prog.StmtCount()))
	done = c.span("conceptual.print")
	o.src = conceptual.Print(prog)
	done()
	c.count("conceptual.source_bytes", float64(len(o.src)))
	done = c.span("conceptual.parse")
	o.parsed, err = conceptual.Parse(o.src)
	done()
	return tr, err
}

// runChain takes one kernel through the full CLI chain: tracegen, benchgen,
// then the generated benchmark executed under profiling and re-tracing.
func runChain(c *opCtx, k kernel, model *netmodel.Model) (*chainOut, error) {
	var o *chainOut
	var text []byte
	var err error
	if c.traced() {
		o, text, err = traceAppSpans(c, k, model)
	} else {
		o, text, err = traceApp(k, model)
	}
	if err != nil {
		return nil, err
	}
	if _, err := generate(c, o, text); err != nil {
		return nil, err
	}
	if !c.traced() {
		run, err := harness.RunProgram(o.parsed, k.n, model)
		if err != nil {
			return nil, err
		}
		o.genProfile, o.genTrace, o.genUS = run.Profile, run.Trace, run.ElapsedUS
		return o, nil
	}
	col, prof, opt := tracers(k.n)
	done := c.span("conceptual.execute")
	res, err := conceptual.Execute(o.parsed, k.n, model, conceptual.WithMPIOptions(pooled(), opt))
	done()
	if err != nil {
		return nil, err
	}
	done = c.span("trace.finalize_merge")
	o.genTrace = col.Trace()
	done()
	c.count("_exec_events", float64(o.genTrace.TotalEvents()))
	o.genProfile, o.genUS = prof, res.ElapsedUS
	return o, nil
}

// chain is the chain-stencil and chain-wildcard instance.
type chain struct {
	kernels []kernel
	model   *netmodel.Model
	order   [][]int
}

func newChain(kernels []kernel) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		w := &chain{kernels: kernels, model: netmodel.BlueGeneL(), order: shuffled(e.seed, e.ops, len(kernels))}
		// Warm-up round: fills the world pool at every size the ops use.
		for _, k := range kernels {
			c := &opCtx{}
			if _, err := runChain(c, k, w.model); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
}

func (w *chain) beginPhase(bool) error { return nil }
func (w *chain) close()                {}

func (w *chain) op(c *opCtx) (func() error, error) {
	outs := make([]*chainOut, 0, len(w.kernels))
	for _, ki := range w.order[c.i] {
		o, err := runChain(c, w.kernels[ki], w.model)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", w.kernels[ki], err)
		}
		outs = append(outs, o)
	}
	// Digest and totals in kernel order, so they do not depend on the seed.
	sort.Slice(outs, func(i, j int) bool { return outs[i].k.String() < outs[j].k.String() })
	for _, o := range outs {
		o.record(c)
	}
	return func() error {
		for _, o := range outs {
			if err := o.check(w.model); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

const probeReps = 3

// timeMedian returns the median time of reps calls of f, on the reference
// container.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	times := make([]time.Duration, reps)
	slow, err := calibrated(func() error {
		for i := range times {
			t0 := time.Now()
			if err := f(); err != nil {
				return err
			}
			times[i] = time.Since(t0)
		}
		return nil
	})
	return onReference(medianDuration(times), slow), err
}

// probe measures the bare application run the traced run is compared with:
// the same body with no tracer, on a pooled world and on a cold one.
func (w *chain) probe(into map[string]float64) error {
	var warm, cold time.Duration
	var events int
	for _, k := range w.kernels {
		col := trace.NewCollector(k.n)
		if _, err := mpi.Run(k.n, w.model, k.body(), pooled(), mpi.WithTracer(col.TracerFor)); err != nil {
			return err
		}
		events += col.Trace().TotalEvents()
		d, err := timeMedian(probeReps, func() error {
			_, err := mpi.Run(k.n, w.model, k.body(), pooled())
			return err
		})
		if err != nil {
			return err
		}
		warm += d
		d, err = timeMedian(probeReps, func() error {
			_, err := mpi.Run(k.n, w.model, k.body())
			return err
		})
		if err != nil {
			return err
		}
		cold += d
	}
	into["mpi.app_run_ms"] = ms(warm)
	into["mpi.cold_run_ms"] = ms(cold)
	into["mpi.ns_per_event"] = float64(warm) / float64(events)
	return nil
}

// genInput is one pre-collected trace file of gen-irregular.
type genInput struct {
	chainOut // original side only
	text     []byte
}

// gen is the gen-irregular instance: benchgen and ncrun on trace text that
// is already there, so no application runs inside an op.
type gen struct {
	inputs []genInput
	model  *netmodel.Model
	order  [][]int
}

func newGen(kernels []kernel) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		w := &gen{model: netmodel.BlueGeneL(), order: shuffled(e.seed, e.ops, len(kernels))}
		for _, k := range kernels {
			o, text, err := traceApp(k, w.model)
			if err != nil {
				return nil, err
			}
			w.inputs = append(w.inputs, genInput{chainOut: *o, text: text})
		}
		for i := range w.inputs {
			if _, err := w.generateAndRun(&opCtx{}, &w.inputs[i]); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
}

func (w *gen) beginPhase(bool) error          { return nil }
func (w *gen) close()                         {}
func (w *gen) probe(map[string]float64) error { return nil }

// generateAndRun is benchgen in all three target languages, then ncrun.
func (w *gen) generateAndRun(c *opCtx, in *genInput) (*chainOut, error) {
	o := in.chainOut
	tr, err := generate(c, &o, in.text)
	if err != nil {
		return nil, err
	}
	done := c.span("conceptual.cgen")
	csrc := conceptual.GenerateC(o.parsed)
	done()
	var gosrc string
	if !c.traced() {
		gosrc, err = core.GenerateGo(tr, nil)
	} else {
		// core.GenerateGo prepares the trace again before traversing it.
		var prepared *trace.Trace
		if prepared, err = prepareSpans(c, tr); err == nil {
			done = c.span("core.gogen")
			g := core.NewGoGenerator()
			if err = core.Traverse(prepared, g); err == nil {
				gosrc, err = g.Source()
			}
			done()
		}
	}
	if err != nil {
		return nil, err
	}
	done = c.span("conceptual.execute")
	res, err := conceptual.Execute(o.parsed, o.k.n, w.model, conceptual.WithMPIOptions(pooled()))
	done()
	if err != nil {
		return nil, err
	}
	if len(res.PerTaskUS) != o.k.n {
		return nil, fmt.Errorf("%d per-task clocks for %d tasks", len(res.PerTaskUS), o.k.n)
	}
	o.genUS = res.ElapsedUS
	o.otherSrc = []string{csrc, gosrc}
	return &o, nil
}

func (w *gen) op(c *opCtx) (func() error, error) {
	outs := make([]*chainOut, len(w.inputs))
	for _, ii := range w.order[c.i] {
		in := &w.inputs[ii]
		if c.traced() {
			c.count("_exec_events", float64(in.origTrace.TotalEvents()))
		}
		o, err := w.generateAndRun(c, in)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", in.k, err)
		}
		outs[ii] = o
	}
	for _, o := range outs {
		o.record(c)
	}
	return func() error {
		for _, o := range outs {
			if err := o.check(w.model); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
