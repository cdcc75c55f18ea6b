package core

import (
	"fmt"

	"repro/internal/mpnet"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The MP-net backend is the fourth generator output format alongside
// coNCePTuaL, C and Go: instead of an executable benchmark it emits the
// trace's formal communication model — the places/transitions artifact
// that internal/mpnet's checker (and external tools) consume. Unlike the
// executable backends it deliberately keeps wildcard receives
// unresolved: the whole point of the artifact is to model the
// nondeterminism Algorithm 2 eliminates, so Prepare runs with
// SkipResolve and only collective alignment (Algorithm 1) is applied.

// lowerForModel aligns the trace's collectives, keeps its wildcards, and
// lowers the result to its MP-net.
func lowerForModel(t *trace.Trace, opts *Options) (*mpnet.Net, error) {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	o.SkipResolve = true
	prepared, err := Prepare(t, &o)
	if err != nil {
		return nil, err
	}
	net, err := mpnet.FromTrace(prepared, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return net, nil
}

// GenerateMPNet lowers the trace to its MP-net and renders the JSON
// artifact.
func GenerateMPNet(t *trace.Trace, opts *Options) ([]byte, error) {
	defer telemetry.Region("core.generate_mpnet")()
	net, err := lowerForModel(t, opts)
	if err != nil {
		return nil, err
	}
	out, err := mpnet.ExportJSON(net)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return out, nil
}

// GenerateMPNetTLA lowers the trace to its MP-net and renders the TLA+
// module (bounded by mpnet.TLAMaxEvents).
func GenerateMPNetTLA(t *trace.Trace, opts *Options, module string) (string, error) {
	defer telemetry.Region("core.generate_mpnet")()
	net, err := lowerForModel(t, opts)
	if err != nil {
		return "", err
	}
	mod, err := mpnet.ExportTLA(net, module)
	if err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	return mod, nil
}
