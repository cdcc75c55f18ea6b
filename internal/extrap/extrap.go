// Package extrap implements the extension the paper's Discussion section
// singles out as intended future work: incorporating ScalaExtrap-style
// trace extrapolation (Wu & Mueller, PPoPP 2011) into benchmark generation,
// so that a benchmark can be generated for a rank count that was never
// traced.
//
// The extrapolator handles the class of traces ScalaExtrap targets — SPMD
// codes whose merged trace consists of behaviour groups with
// topology-generalized parameters. A trace is extrapolable when every
// communication parameter is expressed relative to the executing rank
// (ring/stencil offsets), as an absolute root, or as a butterfly pattern
// whose extent follows the world size; per-rank irregular parameters
// (vectors) and sub-communicators are rejected, mirroring ScalaExtrap's
// stated scope. Loop iteration counts, message sizes and compute-time
// distributions are carried over unchanged (the communication *topology*
// scales; per-rank workload is assumed constant, i.e. weak scaling).
package extrap

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// Check reports whether the trace is extrapolable and, if not, why.
func Check(t *trace.Trace) error {
	if len(t.Comms) != 1 {
		return fmt.Errorf("extrap: trace uses %d communicators; only MPI_COMM_WORLD traces extrapolate", len(t.Comms))
	}
	if len(t.Groups) != 1 {
		return fmt.Errorf("extrap: trace has %d behaviour groups; only fully merged SPMD traces extrapolate", len(t.Groups))
	}
	g := t.Groups[0]
	if g.Ranks.Size() != t.N {
		return fmt.Errorf("extrap: group covers %d of %d ranks", g.Ranks.Size(), t.N)
	}
	var err error
	trace.Leaves(g.Seq, func(r *trace.RSD) {
		if err != nil {
			return
		}
		if !r.Ranks.Equal(g.Ranks) {
			err = fmt.Errorf("extrap: %v at site %x involves a rank subset", r.Op, r.Site)
			return
		}
		switch r.Peer.Kind {
		case trace.ParamNone, trace.ParamRel, trace.ParamAny:
		case trace.ParamAbs:
			// Absolute peers extrapolate only when they stay in range
			// (e.g. "everyone sends to task 0").
			if r.Peer.Value < 0 || r.Peer.Value >= t.N {
				err = fmt.Errorf("extrap: absolute peer %d out of range", r.Peer.Value)
			}
		case trace.ParamXor:
			// Butterfly stages extrapolate when the world is a power of two
			// and the stage stays below it; verified against the target size
			// in Extrapolate.
		case trace.ParamVec:
			err = fmt.Errorf("extrap: irregular per-rank peers at site %x do not extrapolate", r.Site)
		}
		if r.Op == mpi.OpCommSplit || r.Op == mpi.OpCommDup {
			err = fmt.Errorf("extrap: communicator management does not extrapolate")
		}
		if len(r.Counts) > 0 {
			err = fmt.Errorf("extrap: per-rank count vectors (%v) do not extrapolate", r.Op)
		}
	})
	return err
}

// Extrapolate rescales the trace from its recorded world size to newN
// ranks. The result can be fed to the benchmark generator like any other
// trace, yielding a benchmark for a configuration that was never run —
// the capability the paper's Section 6 calls for.
func Extrapolate(t *trace.Trace, newN int) (*trace.Trace, error) {
	if newN <= 0 {
		return nil, fmt.Errorf("extrap: target size %d must be positive", newN)
	}
	if err := Check(t); err != nil {
		return nil, err
	}
	if err := checkUnambiguous(t); err != nil {
		return nil, err
	}
	hasXor := false
	trace.Leaves(t.Groups[0].Seq, func(r *trace.RSD) {
		if r.Peer.Kind == trace.ParamXor {
			hasXor = true
		}
	})
	if hasXor && (newN&(newN-1)) != 0 {
		return nil, fmt.Errorf("extrap: butterfly patterns require a power-of-two target size, got %d", newN)
	}

	all := taskset.Range(0, newN-1)
	world := make([]int, newN)
	for i := range world {
		world[i] = i
	}
	out := &trace.Trace{
		N:      newN,
		Comms:  map[int][]int{0: world},
		Groups: []trace.Group{{Ranks: all, Seq: rescaleSeq(t.Groups[0].Seq, t.N, newN, all)}},
	}
	return out, nil
}

func rescaleSeq(seq []trace.Node, oldN, newN int, all taskset.Set) []trace.Node {
	out := make([]trace.Node, len(seq))
	for i, n := range seq {
		switch x := n.(type) {
		case *trace.Loop:
			out[i] = &trace.Loop{Iters: x.Iters, Body: rescaleSeq(x.Body, oldN, newN, all)}
		case *trace.RSD:
			out[i] = rescaleRSD(x, oldN, newN, all)
		}
	}
	return out
}

func rescaleRSD(r *trace.RSD, oldN, newN int, all taskset.Set) *trace.RSD {
	c := &trace.RSD{
		Op:       r.Op,
		Site:     r.Site,
		Ranks:    all,
		CommID:   0,
		CommSize: newN,
		Peer:     rescaleParam(r.Peer, oldN, newN),
		Wildcard: r.Wildcard,
		Tag:      r.Tag,
		Size:     r.Size,
		Root:     r.Root,
	}
	// Compute-time distributions travel unchanged (weak scaling: per-rank
	// work is constant). Pool the mean so the extrapolated trace replays
	// the same per-event compute time.
	c.SetComputeSample(r.ComputeMean())
	return c
}

// rescaleParam maps topology-relative parameters to the new world size.
// Relative offsets that address "my k-th neighbor from the end" (offsets
// within half a world of the top, e.g. rank-1 recorded as N-1) keep their
// distance from the world size; small forward offsets stay as they are —
// the heuristic ScalaExtrap derives from its topology identification.
func rescaleParam(p trace.Param, oldN, newN int) trace.Param {
	if p.Kind != trace.ParamRel {
		return p
	}
	off := p.Value
	if off > oldN/2 {
		// Backward neighbor: preserve distance from the world size.
		return trace.RelParam(newN - (oldN - off))
	}
	return trace.RelParam(off)
}

// checkUnambiguous rejects single-trace extrapolation of parameters that a
// single scale cannot disambiguate: at world size n, "t+n/2", "t-n/2" and
// "t XOR n/2" are the same function, so a trace recorded with offset n/2
// admits several incompatible scalings. ExtrapolateFrom resolves these with
// a second trace at a different scale, exactly as ScalaExtrap uses traces
// of *several* smaller runs.
func checkUnambiguous(t *trace.Trace) error {
	var err error
	trace.Leaves(t.Groups[0].Seq, func(r *trace.RSD) {
		if err == nil && r.Peer.Kind == trace.ParamRel && t.N%2 == 0 && r.Peer.Value == t.N/2 {
			err = fmt.Errorf("extrap: offset %d at world size %d is ambiguous (t+%d == t XOR %d); "+
				"use ExtrapolateFrom with traces at two scales", r.Peer.Value, t.N, r.Peer.Value, r.Peer.Value)
		}
	})
	return err
}
