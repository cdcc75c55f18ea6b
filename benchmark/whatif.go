package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// combo is one what-if question: which platform, how fast the processors.
type combo struct {
	model  string
	factor float64
}

var combos = func() []combo {
	var out []combo
	for _, m := range []string{"bluegene", "ethernet", "infiniband", "ideal"} {
		for _, f := range []float64{1, 0.5, 0} {
			out = append(out, combo{m, f})
		}
	}
	return out
}()

// whatifProgram is one application traced and generated once, in setup.
type whatifProgram struct {
	k      kernel
	tr     *trace.Trace
	prog   *conceptual.Program
	origUS float64
	// execUS and replayUS are the (bluegene, 1.0) results recorded in setup;
	// the engine is deterministic, so every later such run must equal them.
	execUS, replayUS float64
	events           int
}

// whatif is the exec-whatif instance: generate once, execute many times.
type whatif struct {
	programs []*whatifProgram
	// draws is a seeded permutation of combos: op i asks combos[draws[i%12]]
	// of every program, so every twelve ops ask each question once and the
	// ops' costs are the same twelve whatever the seed.
	draws []int
}

func execute(p *conceptual.Program, n int, model *netmodel.Model, opts ...mpi.Option) (*conceptual.RunResult, error) {
	return conceptual.Execute(p, n, model, conceptual.WithMPIOptions(append(opts, pooled())...))
}

func newWhatif(kernels []kernel) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		w := &whatif{draws: rand.New(rand.NewSource(e.seed)).Perm(len(combos))}
		model := netmodel.BlueGeneL()
		for _, k := range kernels {
			run, err := harness.TraceApp(k.app, k.cfg(), model)
			if err != nil {
				return nil, err
			}
			prog, err := core.Generate(run.Trace, nil)
			if err != nil {
				return nil, err
			}
			p := &whatifProgram{k: k, tr: run.Trace, prog: prog, origUS: run.ElapsedUS,
				events: run.Trace.TotalEvents()}
			res, err := execute(prog, k.n, model)
			if err != nil {
				return nil, err
			}
			rres, err := replay.Replay(run.Trace, model, pooled())
			if err != nil {
				return nil, err
			}
			p.execUS, p.replayUS = res.ElapsedUS, rres.ElapsedUS
			w.programs = append(w.programs, p)
		}
		return w, nil
	}
}

func (w *whatif) beginPhase(bool) error { return nil }
func (w *whatif) close()                {}

func (w *whatif) op(c *opCtx) (func() error, error) {
	var bad error
	cb := combos[w.draws[c.i%len(combos)]]
	model := netmodel.Preset(cb.model)
	for _, p := range w.programs {
		scaled := harness.ScaleCompute(p.prog, cb.factor)
		done := c.span("conceptual.execute")
		res, err := execute(scaled, p.k.n, model)
		done()
		if err != nil {
			return nil, fmt.Errorf("%v on %v: %w", p.k, cb, err)
		}
		done = c.span("replay.replay")
		rres, err := replay.Replay(p.tr, model, pooled())
		done()
		if err != nil {
			return nil, fmt.Errorf("%v replay on %s: %w", p.k, cb.model, err)
		}
		if c.traced() {
			c.count("_exec_events", float64(p.events))
			c.count("_replay_events", float64(p.events))
		}
		c.digestFloats(res.PerTaskUS...)
		c.digestFloats(rres.PerRankUS...)

		reference := cb == combo{"bluegene", 1} // what setup ran
		switch {
		case len(res.PerTaskUS) != p.k.n || len(rres.PerRankUS) != p.k.n:
			bad = fmt.Errorf("%v on %v: %d/%d per-rank clocks for %d ranks", p.k, cb, len(res.PerTaskUS), len(rres.PerRankUS), p.k.n)
		case cb.model == "bluegene" && rres.ElapsedUS != p.replayUS:
			bad = fmt.Errorf("%v: replay took %v us, %v us in setup", p.k, rres.ElapsedUS, p.replayUS)
		case reference && res.ElapsedUS != p.execUS:
			bad = fmt.Errorf("%v: execution took %v us, %v us in setup", p.k, res.ElapsedUS, p.execUS)
		}
		if reference {
			c.timingError(res.ElapsedUS, p.origUS)
		}
	}
	return func() error { return bad }, nil
}

// probe measures what the causal profiler costs an execution, and the
// critical-path analysis of the graph it records.
func (w *whatif) probe(into map[string]float64) error {
	programs := make([]causalInput, len(w.programs))
	for i, p := range w.programs {
		programs[i] = causalInput{p.prog, p.k.n}
	}
	return probeCausal(programs, netmodel.BlueGeneL(), into)
}

type causalInput struct {
	prog *conceptual.Program
	n    int
}

// probeCausal executes each program with and without mpi.WithCausalProfile,
// alternating, and analyzes the recorded graph. Values are sums over the
// programs, like an op's.
func probeCausal(programs []causalInput, model *netmodel.Model, into map[string]float64) error {
	var plain, causal, analyze time.Duration
	var records int
	for _, p := range programs {
		graph := mpi.NewDepGraph()
		var plainT, causalT []time.Duration
		var analyzeT time.Duration
		slow, err := calibrated(func() error {
			for rep := 0; rep < probeReps; rep++ {
				t0 := time.Now()
				if _, err := execute(p.prog, p.n, model); err != nil {
					return err
				}
				t1 := time.Now()
				if _, err := execute(p.prog, p.n, model, mpi.WithCausalProfile(graph)); err != nil {
					return err
				}
				plainT, causalT = append(plainT, t1.Sub(t0)), append(causalT, time.Since(t1))
			}
			t0 := time.Now()
			critpath.Analyze(graph)
			analyzeT = time.Since(t0)
			return nil
		})
		if err != nil {
			return err
		}
		plain += medianDuration(plainT)
		causal += medianDuration(causalT)
		analyze += onReference(analyzeT, slow)
		records += graph.Total()
	}
	into["mpi.causal_overhead_pct"] = 100 * (float64(causal)/float64(plain) - 1)
	into["critpath.analyze_ms"] = ms(analyze)
	into["critpath.records"] = float64(records)
	return nil
}
