// Package core implements the paper's primary contribution: the automatic
// benchmark generator. It consumes a ScalaTrace-style compressed application
// trace, runs Algorithm 2 (wildcard resolution, internal/wildcard) and
// Algorithm 1 (collective alignment, internal/align) as needed, and then
// walks the trace once, recursively, building the coNCePTuaL program from
// its RSDs and PRSDs (Section 4.1). Other target languages are that program
// printed in another dialect (internal/conceptual).
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
	// Comments are prepended to the generated program.
	Comments []string
}

// computeFloorUS suppresses compute phases shorter than this in the
// generated program, to keep it readable.
const computeFloorUS = 0.01

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
	if wildcard.Present(out) {
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

// CodeGenerator is a generator Traverse can build a program with:
// ConceptualGenerator, and GoGenerator through it.
type CodeGenerator interface {
	build(t *trace.Trace) error
}

// Traverse builds the program of a prepared trace into g, in one recursive
// walk of the compressed trace: loops are visited once, not per iteration,
// and groups in rank order. Traces with unaligned collectives or unresolved
// wildcards should be passed through Prepare first.
func Traverse(t *trace.Trace, g CodeGenerator) error { return g.build(t) }
