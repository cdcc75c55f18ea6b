// Package mpip is the reproduction's analogue of the mpiP profiling library
// the paper uses in Section 5.2: it attaches to a run through the runtime's
// PMPI-style hook and gathers, per MPI operation, the call count and message
// volume. Comparing the profile of an original application with the profile
// of its generated benchmark is the paper's first correctness check.
package mpip

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// Profile aggregates per-operation statistics across all ranks of a run.
// One world feeds it: the runtime calls one world's tracers one at a time
// (mpi.Tracer), so its ranks need no lock between them, and it is read once
// the run has returned. Two worlds running at once must not share one.
type Profile struct {
	counts [mpi.NumOps]int64
	bytes  [mpi.NumOps]int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// TracerFor returns the per-rank tracer hook; pass it to mpi.WithTracer.
func (p *Profile) TracerFor(rank int) mpi.Tracer { return (*profTracer)(p) }

type profTracer Profile

// Record accumulates one event. Volume accounting follows mpiP: the bytes an
// operation names in its arguments (message size for point-to-point, the
// rank's contribution for collectives). Wait operations carry no volume.
func (t *profTracer) Record(ev *mpi.Event) {
	p := (*Profile)(t)
	p.counts[ev.Op]++
	if !ev.Op.IsWait() {
		p.bytes[ev.Op] += int64(ev.Size)
	}
}

// Count returns the number of calls observed for op across all ranks.
func (p *Profile) Count(op mpi.Op) int64 {
	return p.counts[op]
}

// Bytes returns the total volume observed for op across all ranks.
func (p *Profile) Bytes(op mpi.Op) int64 {
	return p.bytes[op]
}

// ReportRow is one operation's comparison in a Diff report: both profiles'
// count and volume plus the percentage error of B against A (A is the
// reference, as in Section 5.2's original-vs-generated comparison).
type ReportRow struct {
	Op             mpi.Op
	CountA, CountB int64
	BytesA, BytesB int64
	CountErrPct    float64
	BytesErrPct    float64
}

// Report is a full per-operation comparison of two profiles, covering every
// operation either profile observed, matching rows included.
type Report struct {
	Rows []ReportRow
}

// Diff compares two profiles operation by operation and returns the report.
// Profile a is the reference for the percentage errors.
func Diff(a, b *Profile) *Report {
	r := &Report{}
	for op := mpi.Op(0); int(op) < mpi.NumOps; op++ {
		ca, ba := a.Count(op), a.Bytes(op)
		cb, bb := b.Count(op), b.Bytes(op)
		if ca == 0 && cb == 0 && ba == 0 && bb == 0 {
			continue
		}
		r.Rows = append(r.Rows, ReportRow{
			Op: op, CountA: ca, CountB: cb, BytesA: ba, BytesB: bb,
			CountErrPct: stats.AbsPercentError(float64(cb), float64(ca)),
			BytesErrPct: stats.AbsPercentError(float64(bb), float64(ba)),
		})
	}
	return r
}

// Match reports whether the two profiles agree exactly on every operation —
// the paper's criterion for communication correctness.
func (r *Report) Match() bool {
	for _, row := range r.Rows {
		if row.CountA != row.CountB || row.BytesA != row.BytesB {
			return false
		}
	}
	return true
}

// MaxErrPct returns the largest percentage error across all rows and both
// dimensions (counts and bytes).
func (r *Report) MaxErrPct() float64 {
	max := 0.0
	for _, row := range r.Rows {
		if row.CountErrPct > max {
			max = row.CountErrPct
		}
		if row.BytesErrPct > max {
			max = row.BytesErrPct
		}
	}
	return max
}

// String renders the report as a table, one row per operation, mismatching
// rows marked with a trailing asterisk.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("@--- Profile Comparison (A = reference) ---\n")
	fmt.Fprintf(&sb, "%-16s %10s %10s %8s %12s %12s %8s\n",
		"Call", "CountA", "CountB", "err%", "BytesA", "BytesB", "err%")
	for _, row := range r.Rows {
		mark := ""
		if row.CountA != row.CountB || row.BytesA != row.BytesB {
			mark = " *"
		}
		fmt.Fprintf(&sb, "%-16s %10d %10d %8.2f %12d %12d %8.2f%s\n",
			row.Op, row.CountA, row.CountB, row.CountErrPct,
			row.BytesA, row.BytesB, row.BytesErrPct, mark)
	}
	return sb.String()
}

// String renders an mpiP-style report, one line per operation that was
// called at least once, sorted by name.
func (p *Profile) String() string {
	type row struct {
		name  string
		calls int64
		bytes int64
	}
	var rows []row
	for op := mpi.Op(0); int(op) < mpi.NumOps; op++ {
		if p.counts[op] > 0 {
			rows = append(rows, row{op.String(), p.counts[op], p.bytes[op]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var sb strings.Builder
	sb.WriteString("@--- MPI Time and Message Statistics ---\n")
	fmt.Fprintf(&sb, "%-16s %12s %16s\n", "Call", "Count", "Bytes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %12d %16d\n", r.name, r.calls, r.bytes)
	}
	return sb.String()
}
