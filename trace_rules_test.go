package repro

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// decodesBack fails t unless Decode accepts the encoding of tr: tr meets the
// rules Decode refuses a trace by.
func decodesBack(t *testing.T, what string, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	if _, err := trace.Decode(&buf); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestProducersMeetTheTraceRules holds every producer of traces to the rules
// Decode checks, so that no consumer needs a rule of its own: each golden
// kernel's collected trace, its core.Prepare output (Algorithms 2 and 1), the
// re-trace of its generated program and, where the kernel extrapolates, its
// extrapolation to twice the ranks; the MP-net counterexample trace of the
// Figure 5 deadlock; and a two-scale extrapolation.
func TestProducersMeetTheTraceRules(t *testing.T) {
	model := netmodel.BlueGeneL()
	for _, k := range goldenKernels() {
		t.Run(k.key(), func(t *testing.T) {
			t.Parallel()
			_, text, _ := runBody(t, k.key(), k.n, k.body)
			tr, err := trace.Decode(bytes.NewReader(text))
			if err != nil {
				t.Fatalf("collected: %v", err)
			}
			prepared, err := core.Prepare(tr, &core.Options{})
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			decodesBack(t, "prepared", prepared)
			prog, err := core.Generate(tr, nil)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			col := trace.NewCollector(k.n)
			if _, err := conceptual.Execute(prog, k.n, model, conceptual.WithMPIOptions(mpi.WithTracer(col.TracerFor))); err != nil {
				t.Fatalf("execute: %v", err)
			}
			decodesBack(t, "generated program's re-trace", col.Trace())
			if big, err := extrap.Extrapolate(tr, 2*k.n); err == nil {
				decodesBack(t, "extrapolated", big)
			}
		})
	}

	t.Run("figure5-counterexample", func(t *testing.T) {
		col := trace.NewCollector(3)
		if _, err := mpi.Run(3, model, figure5Body, mpi.WithTracer(col.TracerFor)); err != nil {
			t.Fatal(err)
		}
		net, err := mpnet.FromTrace(col.Trace(), nil)
		if err != nil {
			t.Fatal(err)
		}
		v := net.Check(nil)
		if v.Counterexample == nil {
			t.Fatal("no counterexample")
		}
		cx, err := mpnet.CounterexampleTrace(net, v.Counterexample)
		if err != nil {
			t.Fatal(err)
		}
		decodesBack(t, "counterexample", cx)
	})

	t.Run("ring-8-16-to-128", func(t *testing.T) {
		var scales []*trace.Trace
		for _, n := range []int{8, 16} {
			col := trace.NewCollector(n)
			body := apps.ByName("ring").Body(apps.NewConfig(n, apps.ClassS))
			if _, err := mpi.Run(n, model, body, mpi.WithTracer(col.TracerFor)); err != nil {
				t.Fatal(err)
			}
			scales = append(scales, col.Trace())
		}
		big, err := extrap.ExtrapolateFrom(scales[0], scales[1], 128)
		if err != nil {
			t.Fatal(err)
		}
		decodesBack(t, "extrapolated from two scales", big)
	})
}
