package critpath

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// fmtUS renders a microsecond quantity with a readable unit.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.3fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// String renders the profile as the text report the -critpath flags print.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- Critical path & wait states (n=%d, elapsed %s) ---\n", p.N, fmtUS(p.ElapsedUS))
	fmt.Fprintf(&sb, "critical path %s = compute %s (%.1f%%) + transfer %s (%.1f%%) + overhead %s (%.1f%%)\n",
		fmtUS(p.CritPathUS),
		fmtUS(p.PathComputeUS), pct(p.PathComputeUS, p.CritPathUS),
		fmtUS(p.PathTransferUS), pct(p.PathTransferUS, p.CritPathUS),
		fmtUS(p.PathOverheadUS), pct(p.PathOverheadUS, p.CritPathUS))
	fmt.Fprintf(&sb, "%d dependency records", p.Records)
	if p.Truncated {
		sb.WriteString(" (TRUNCATED: record limit hit, path invariant void)")
	}
	sb.WriteByte('\n')
	if len(p.PathOps) > 0 {
		sb.WriteString("on-path time by op:\n")
		for _, ot := range p.PathOps {
			fmt.Fprintf(&sb, "  %-14s %12s  (%d segments)\n", ot.Name, fmtUS(ot.WaitUS), ot.Count)
		}
	}
	fmt.Fprintf(&sb, "aggregate wait %s across all ranks:\n", fmtUS(p.TotalWaitUS))
	for _, st := range p.Wait {
		fmt.Fprintf(&sb, "  %-16s %12s  (%d events)\n", st.Name, fmtUS(st.WaitUS), st.Count)
	}
	if len(p.Sites) > 0 {
		sb.WriteString("top call sites by wait:\n")
		n := len(p.Sites)
		if n > 8 {
			n = 8
		}
		for _, st := range p.Sites[:n] {
			fmt.Fprintf(&sb, "  site %016x %-12s %12s  (%d events)\n", st.Site, st.OpName, fmtUS(st.WaitUS), st.Count)
		}
	}
	if len(p.TopRanks) > 0 {
		sb.WriteString("top waiting ranks:\n")
		n := len(p.TopRanks)
		if n > 8 {
			n = 8
		}
		for _, rw := range p.TopRanks[:n] {
			fmt.Fprintf(&sb, "  rank %-6d %12s\n", rw.Rank, fmtUS(rw.WaitUS))
		}
	}
	return sb.String()
}

// DiffRow compares one quantity between two profiles.
type DiffRow struct {
	Name   string  `json:"name"`
	AUS    float64 `json:"a_us"`
	BUS    float64 `json:"b_us"`
	ErrPct float64 `json:"err_pct"`
}

// DiffReport compares the causal structure of two runs — in the experiments
// harness, an original application against its generated benchmark — the
// way mpip.Diff compares their operation profiles.
type DiffReport struct {
	Rows []DiffRow `json:"rows"`
}

// Diff compares profile b against reference a: elapsed time, the path's
// class decomposition, and every wait state present in either run.
func Diff(a, b *Profile) *DiffReport {
	d := &DiffReport{}
	row := func(name string, av, bv float64) {
		d.Rows = append(d.Rows, DiffRow{Name: name, AUS: av, BUS: bv,
			ErrPct: stats.AbsPercentError(bv, av)})
	}
	row("elapsed", a.ElapsedUS, b.ElapsedUS)
	row("path-compute", a.PathComputeUS, b.PathComputeUS)
	row("path-transfer", a.PathTransferUS, b.PathTransferUS)
	row("path-overhead", a.PathOverheadUS, b.PathOverheadUS)
	aw := waitByState(a)
	bw := waitByState(b)
	for s := WaitState(0); s < NumWaitStates; s++ {
		av, bv := aw[s], bw[s]
		if av == 0 && bv == 0 {
			continue
		}
		row(s.String(), av, bv)
	}
	return d
}

func waitByState(p *Profile) [NumWaitStates]float64 {
	var out [NumWaitStates]float64
	for _, st := range p.Wait {
		out[st.State] = st.WaitUS
	}
	return out
}

// MaxErrPct returns the worst finite row error; rows where the reference is
// zero but the measurement is not count as +Inf and are returned as-is.
func (d *DiffReport) MaxErrPct() float64 {
	worst := 0.0
	for _, r := range d.Rows {
		if r.ErrPct > worst {
			worst = r.ErrPct
		}
	}
	return worst
}

// String renders the comparison table (A = reference).
func (d *DiffReport) String() string {
	var sb strings.Builder
	sb.WriteString("--- Critical-path comparison (A = reference) ---\n")
	fmt.Fprintf(&sb, "%-16s %14s %14s %10s\n", "quantity", "A", "B", "err%")
	for _, r := range d.Rows {
		fmt.Fprintf(&sb, "%-16s %14s %14s %9.2f%%\n", r.Name, fmtUS(r.AUS), fmtUS(r.BUS), r.ErrPct)
	}
	return sb.String()
}

// Overlay paints the critical path onto a virtual-time timeline as one
// extra track (telemetry.CritPathTrack), so loading the Chrome trace in
// Perfetto shows the chain of segments the makespan decomposes into right
// below the per-rank spans it threads through.
func Overlay(tl *telemetry.Timeline, p *Profile) {
	if tl == nil || len(p.Path) == 0 {
		return
	}
	tk := tl.Track(telemetry.CritPathTrack, "critical path")
	for _, s := range p.Path {
		name := s.Class.String()
		if s.Class != ClassCompute {
			name = fmt.Sprintf("%s %s", s.Class, s.Op)
		}
		tk.Add(fmt.Sprintf("rank %d: %s", s.Rank, name), s.StartUS, s.EndUS-s.StartUS)
	}
}
