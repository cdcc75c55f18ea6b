package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Verify traces the named application and runs the bounded model checker
// over its MP-net: deadlock-freedom by exhaustive exploration at small
// scale, wildcard resolution cross-validated against Algorithm 2, and —
// when the checker finds a deadlock — the counterexample confirmed by
// concrete replay on the event engine under the same model. This is what
// the -verify flag on ncrun, benchgen and experiments runs.
// Nil opts use the checker defaults; a caller sweeping kernels with large
// wildcard spaces passes a smaller Options.MaxStates so the bounded
// exploration gives up fast — the resolved-trace proof and the resolver
// cross-validation are exact regardless of the bound.
func Verify(name string, cfg apps.Config, model *netmodel.Model, opts *mpnet.Options) (*mpnet.Report, error) {
	run, err := TraceApp(name, cfg, model)
	if err != nil {
		return nil, err
	}
	return VerifyTrace(context.Background(), run.Trace, model, opts)
}

// VerifyTrace verifies an already-collected (or decoded) trace. The
// exploration stops with ctx's error once ctx is done.
func VerifyTrace(ctx context.Context, tr *trace.Trace, model *netmodel.Model, opts *mpnet.Options) (*mpnet.Report, error) {
	rep, err := mpnet.VerifyWithReplayContext(ctx, tr, opts, model)
	if err != nil {
		return nil, fmt.Errorf("harness: verify: %w", err)
	}
	return rep, nil
}
