package main

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// verifyCase is one pre-collected trace with the verdict it must get.
type verifyCase struct {
	name     string
	tr       *trace.Trace
	deadlock bool
}

// verify is the verify-wildcard instance.
type verify struct {
	cases []verifyCase
	model *netmodel.Model
	order [][]int
}

var verifyOptions = &mpnet.Options{MaxStates: 1 << 15}

// figure5 collects the paper's Figure 5 shape: rank 1 posts a wildcard
// receive and then a receive from rank 0 while ranks 0 and 2 both send to
// it. The observed schedule completes (the wildcard matched rank 2), but
// matching it to rank 0 deadlocks: the case the checker must find.
func figure5(model *netmodel.Model) (*trace.Trace, error) {
	col := trace.NewCollector(3)
	_, err := mpi.Run(3, model, func(r *mpi.Rank) {
		switch r.Rank() {
		case 0:
			r.Compute(100)
			r.Send(r.World(), 1, 0, 64)
		case 2:
			r.Send(r.World(), 1, 0, 64)
		}
		r.Barrier(r.World())
		if r.Rank() == 1 {
			r.Recv(r.World(), mpi.AnySource, 0, 64)
			r.Recv(r.World(), 0, 0, 64)
		}
	}, mpi.WithTracer(col.TracerFor))
	if err != nil {
		return nil, err
	}
	return col.Trace(), nil
}

func newVerify(kernels []kernel) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		w := &verify{model: netmodel.BlueGeneL(), order: shuffled(e.seed, e.ops, len(kernels)+1)}
		for _, k := range kernels {
			run, err := harness.TraceApp(k.app, k.cfg(), w.model)
			if err != nil {
				return nil, err
			}
			w.cases = append(w.cases, verifyCase{name: k.String(), tr: run.Trace})
		}
		fig5, err := figure5(w.model)
		if err != nil {
			return nil, err
		}
		w.cases = append(w.cases, verifyCase{name: "figure5", tr: fig5, deadlock: true})
		for _, vc := range w.cases {
			if _, err := mpnet.VerifyWithReplay(vc.tr, verifyOptions, w.model); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
}

func (w *verify) beginPhase(bool) error { return nil }
func (w *verify) close()                {}

func (w *verify) op(c *opCtx) (func() error, error) {
	reports := make([]*mpnet.Report, len(w.cases))
	for _, ci := range w.order[c.i] {
		vc := w.cases[ci]
		done := c.span("mpnet.verify")
		rep, err := mpnet.VerifyWithReplay(vc.tr, verifyOptions, w.model)
		done()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", vc.name, err)
		}
		reports[ci] = rep
	}
	for _, rep := range reports {
		c.digestString(fmt.Sprintf("%v %v %d %v;", rep.Passed(), rep.Verdict.Exhaustive, rep.Verdict.StatesExplored, rep.ReplayConfirmed))
		for _, v := range []*mpnet.Verdict{rep.Verdict, rep.ResolvedVerdict} {
			if c.traced() && v != nil && v.Exhaustive {
				c.count("mpnet.exhaustive", 1)
			}
		}
	}
	return func() error {
		for i, rep := range reports {
			vc := w.cases[i]
			switch {
			case !vc.deadlock && !rep.Passed():
				return fmt.Errorf("%s: want PASS, got\n%v", vc.name, rep)
			case vc.deadlock && (rep.Verdict.Counterexample == nil || !rep.ReplayConfirmed):
				return fmt.Errorf("%s: want a replay-confirmed DEADLOCK, got\n%v", vc.name, rep)
			}
		}
		return nil
	}, nil
}

// probe times the two stages inside Verify that have public entry points of
// their own, so cross-validation is what remains of the verify span.
func (w *verify) probe(into map[string]float64) error {
	var lower, check time.Duration
	var allocB uint64
	for _, vc := range w.cases {
		var net *mpnet.Net
		d, err := timeMedian(probeReps, func() (err error) {
			net, err = mpnet.FromTrace(vc.tr, verifyOptions)
			return err
		})
		if err != nil {
			return err
		}
		lower += d
		b0, _ := allocNow()
		d, _ = timeMedian(probeReps, func() error {
			net.Check(verifyOptions)
			return nil
		})
		b1, _ := allocNow()
		check += d
		allocB += (b1 - b0) / probeReps
	}
	into["mpnet.lower_ms"] = ms(lower)
	into["mpnet.check_ms"] = ms(check)
	into["mpnet.alloc_mb_per_check"] = float64(allocB) / 1e6 / float64(len(w.cases))
	return nil
}
