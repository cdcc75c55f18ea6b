// Package replay is the reproduction's ScalaReplay: it re-executes a
// compressed communication trace on the simulated MPI runtime, issuing the
// recorded operations with the recorded compute times. Section 5.2 of the
// paper replays both the original application's trace and the generated
// benchmark's trace to compare them free of spurious structural differences;
// Equivalent implements that comparison.
//
// A replayed rank is a flat, pre-known operation sequence, the shape the
// event engine's stackless representation wants. Replay lowers the trace once
// per call (trace.Lower) to the program form a coNCePTuaL program also runs
// as, and every other per-rank walk of a trace — Algorithms 1 and 2,
// trace.Pinned, the MP-net lowering — is a trace.Cursor on the same programs
// and interpreter, so they see the events, and the compute samples, replay
// issues. Per event a rank's stream steps a program counter and copies a
// template; the requests the executor creates are recycled at each completed
// drain. Every re-issued operation carries the trace's recorded call site, so
// a replay under a Collector re-traces with the original sites.
package replay

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Replay executes the trace on n simulated ranks, each a stackless cursor on
// the event engine, and returns the runtime's result. Extra mpi options
// (tracers, profilers, contexts, a pooled engine) may be supplied —
// replaying under a Collector yields a re-trace.
func Replay(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	return mpi.RunStackless(t.N, model, Streams(t), opts...)
}

// Streams lowers every group of t (t.N > 0) once and returns each rank's
// operation stream: its group's program, run from its slot.
func Streams(t *trace.Trace) func(rank int) mpi.OpStream {
	return mpi.ProgramStreams(t.N, trace.Lower(t).ProgramOf, nil)
}
