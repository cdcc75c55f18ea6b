// Package core implements the paper's primary contribution: the automatic
// benchmark generator. It consumes a ScalaTrace-style compressed application
// trace, runs Algorithm 2 (wildcard resolution, internal/wildcard) and
// Algorithm 1 (collective alignment, internal/align) as needed, and then
// traverses the trace, invoking a pluggable per-RSD/PRSD code generator —
// the coNCePTuaL backend being the primary one (Section 4.1).
//
// The generator performs the paper's engineering steps along the way:
// communicator-relative ranks are translated to absolute ranks (Section
// 4.2), and MPI collectives without a coNCePTuaL equivalent are substituted
// per Table 1.
package core

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/conceptual"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// Options configure generation.
type Options struct {
	// SkipResolve disables Algorithm 2 even when wildcards are present: the
	// formal-model backends render the nondeterminism it would eliminate.
	SkipResolve bool
	// Comments are prepended to the generated program.
	Comments []string
}

// computeFloorUS suppresses compute phases shorter than this in every
// backend's output, to keep the generated code readable.
const computeFloorUS = 0.01

// reduceScatterGroup returns the world ranks that root Table 1's substitution
// of a Reduce_scatter leaf — one REDUCE per communicator member, of
// r.SegmentSize — falling back to the participants when the trace does not
// know the communicator.
func reduceScatterGroup(t *trace.Trace, r *trace.RSD) []int {
	if group := t.CommGroup(r.CommID); len(group) > 0 {
		return group
	}
	return r.Ranks.Members()
}

// Generate converts an application trace into a coNCePTuaL benchmark
// program. This is the end-to-end path of Figure 1.
func Generate(t *trace.Trace, opts *Options) (*conceptual.Program, error) {
	defer telemetry.Region("core.generate")()
	if opts == nil {
		opts = &Options{}
	}
	prepared, err := Prepare(t, opts)
	if err != nil {
		return nil, err
	}
	g := NewConceptualGenerator(opts)
	if err := Traverse(prepared, g); err != nil {
		return nil, err
	}
	return g.Program()
}

// Prepare runs the pre-generation pipeline: the O(r) pre-checks followed by
// Algorithm 2 and Algorithm 1 when their conditions hold (Sections 4.3 and
// 4.4 both apply the cheap check before the O(p*e) pass).
func Prepare(t *trace.Trace, opts *Options) (*trace.Trace, error) {
	out := t
	if !opts.SkipResolve && wildcard.Present(out) {
		resolved, err := wildcard.Resolve(out)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		out = resolved
	}
	if align.Needed(out) {
		aligned, err := align.Align(out)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		out = aligned
	}
	return out, nil
}

// CodeGenerator is the pluggable per-node backend interface of Section 4.1:
// the trace traversal framework invokes one callback per RSD and per PRSD
// boundary. Implementing this interface for a different target language
// yields a different generator.
type CodeGenerator interface {
	// Begin is called once with the trace before traversal.
	Begin(t *trace.Trace)
	// StartLoop enters a PRSD with the given iteration count.
	StartLoop(iters int)
	// EndLoop leaves the innermost PRSD.
	EndLoop()
	// Event handles one RSD.
	Event(r *trace.RSD) error
}

// Traverse walks the compressed trace structurally (loops are visited once,
// not per iteration) and drives the code generator. Groups are visited in
// rank order; traces with unaligned collectives should be passed through
// Prepare first.
func Traverse(t *trace.Trace, g CodeGenerator) error {
	g.Begin(t)
	for _, grp := range t.Groups {
		if err := traverseSeq(grp.Seq, g); err != nil {
			return err
		}
	}
	return nil
}

func traverseSeq(seq []trace.Node, g CodeGenerator) error {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.RSD:
			if err := g.Event(x); err != nil {
				return err
			}
		case *trace.Loop:
			g.StartLoop(x.Iters)
			if err := traverseSeq(x.Body, g); err != nil {
				return err
			}
			g.EndLoop()
		default:
			return fmt.Errorf("core: unknown node type %T", n)
		}
	}
	return nil
}
