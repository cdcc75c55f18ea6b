package core

import (
	"fmt"

	"repro/internal/align"
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
// nondeterminism Algorithm 2 eliminates, so only collective alignment
// (Algorithm 1) is applied.

// lowerForModel aligns the trace's collectives, keeps its wildcards, and
// lowers the result to its MP-net.
func lowerForModel(t *trace.Trace) (*mpnet.Net, error) {
	if align.Needed(t) {
		aligned, err := align.Align(t)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		t = aligned
	}
	net, err := mpnet.FromTrace(t, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return net, nil
}

// fromModel is the renderer of a model language: export of the MP-net of the
// trace as collected.
func fromModel(export func(*mpnet.Net) (string, error)) func(*Pipeline) (string, error) {
	return func(p *Pipeline) (string, error) {
		defer telemetry.Region("core.generate_mpnet")()
		net, err := lowerForModel(p.raw)
		if err != nil {
			return "", err
		}
		out, err := export(net)
		if err != nil {
			return "", fmt.Errorf("core: %w", err)
		}
		return out, nil
	}
}
