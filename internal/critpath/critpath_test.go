package critpath

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestWalkSimpleChain checks the backward walk on a hand-built two-rank
// graph: rank 1 posts a receive at t=5, the message departed rank 0 at t=3
// and arrives at t=9, completion costs 1, and rank 1 computes until t=12.
func TestWalkSimpleChain(t *testing.T) {
	g := &mpi.DepGraph{
		N: 2,
		Records: [][]mpi.DepRecord{
			nil,
			{{Kind: mpi.DepRecv, Op: mpi.OpRecv, Rank: 1, From: 0, Site: 42,
				Start: 5, Ready: 9, End: 10, FromClock: 3}},
		},
		FinalUS:   []float64{4, 12},
		ElapsedUS: 12,
	}
	p := Analyze(g)
	want := []Segment{
		{Rank: 0, StartUS: 0, EndUS: 3, Class: ClassCompute},
		{Rank: 1, StartUS: 3, EndUS: 9, Class: ClassTransfer, Op: mpi.OpRecv, Site: 42},
		{Rank: 1, StartUS: 9, EndUS: 10, Class: ClassOverhead, Op: mpi.OpRecv, Site: 42},
		{Rank: 1, StartUS: 10, EndUS: 12, Class: ClassCompute},
	}
	if len(p.Path) != len(want) {
		t.Fatalf("path has %d segments, want %d: %+v", len(p.Path), len(want), p.Path)
	}
	for i, s := range want {
		if p.Path[i] != s {
			t.Errorf("segment %d = %+v, want %+v", i, p.Path[i], s)
		}
	}
	if p.CritPathUS != 12 || p.PathComputeUS != 5 || p.PathTransferUS != 6 || p.PathOverheadUS != 1 {
		t.Errorf("decomposition %v = %v + %v + %v",
			p.CritPathUS, p.PathComputeUS, p.PathTransferUS, p.PathOverheadUS)
	}
	if p.TotalWaitUS != 4 {
		t.Errorf("total wait %v, want 4 (late sender 9-5)", p.TotalWaitUS)
	}
	if len(p.Sites) != 1 || p.Sites[0].Site != 42 || p.Sites[0].WaitUS != 4 {
		t.Errorf("site rollup %+v", p.Sites)
	}
	if len(p.TopRanks) != 1 || p.TopRanks[0].Rank != 1 {
		t.Errorf("rank rollup %+v", p.TopRanks)
	}
}

// TestWalkSatisfiedDependency: a record whose dependency was ready before
// the rank arrived (Ready <= Start) keeps the walk on the same rank and
// contributes only its completion cost.
func TestWalkSatisfiedDependency(t *testing.T) {
	g := &mpi.DepGraph{
		N: 1,
		Records: [][]mpi.DepRecord{
			{{Kind: mpi.DepRecv, Op: mpi.OpRecv, Rank: 0, From: 0,
				Start: 5, Ready: 2, End: 6, FromClock: 1}},
		},
		FinalUS:   []float64{8},
		ElapsedUS: 8,
	}
	p := Analyze(g)
	if p.CritPathUS != 8 {
		t.Errorf("critical path %v, want 8", p.CritPathUS)
	}
	if p.PathTransferUS != 0 {
		t.Errorf("satisfied receive put transfer on the path: %v", p.PathTransferUS)
	}
	if p.PathOverheadUS != 1 || p.PathComputeUS != 7 {
		t.Errorf("decomposition compute %v overhead %v, want 7 + 1",
			p.PathComputeUS, p.PathOverheadUS)
	}
	if p.TotalWaitUS != 0 {
		t.Errorf("satisfied dependency counted as wait: %v", p.TotalWaitUS)
	}
}

// TestClassify maps each record kind/op to its Scalasca-style wait state.
func TestClassify(t *testing.T) {
	rec := func(k mpi.DepKind, op mpi.Op, wait, penalty float64, unexpected bool) mpi.DepRecord {
		return mpi.DepRecord{Kind: k, Op: op, Start: 10, Ready: 10 + wait,
			End: 10 + wait, Penalty: penalty, Unexpected: unexpected}
	}
	g := &mpi.DepGraph{
		N: 1,
		Records: [][]mpi.DepRecord{{
			rec(mpi.DepRecv, mpi.OpRecv, 3, 0, false),
			rec(mpi.DepRecv, mpi.OpRecv, 0, 2, true),
			rec(mpi.DepColl, mpi.OpBarrier, 5, 0, false),
			rec(mpi.DepColl, mpi.OpAlltoall, 7, 0, false),
			rec(mpi.DepColl, mpi.OpAllreduce, 11, 0, false),
			rec(mpi.DepCredit, mpi.OpSend, 13, 0, false),
		}},
		FinalUS:   []float64{100},
		ElapsedUS: 100,
	}
	p := Analyze(g)
	want := map[WaitState]float64{
		LateSender:    3,
		LateReceiver:  2,
		WaitAtBarrier: 5,
		WaitAtNxN:     7,
		WaitAtColl:    11,
		CreditStall:   13,
	}
	got := map[WaitState]float64{}
	for _, st := range p.Wait {
		got[st.State] = st.WaitUS
	}
	for s, us := range want {
		if got[s] != us {
			t.Errorf("%s = %v, want %v", s, got[s], us)
		}
	}
	if p.TotalWaitUS != 41 {
		t.Errorf("total wait %v, want 41", p.TotalWaitUS)
	}
}

// TestAnalyzeEmpty: an unfinished or empty graph yields an empty profile
// rather than a panic.
func TestAnalyzeEmpty(t *testing.T) {
	p := Analyze(&mpi.DepGraph{})
	if p.CritPathUS != 0 || len(p.Path) != 0 {
		t.Errorf("empty graph produced %+v", p)
	}
	p = Analyze(&mpi.DepGraph{N: 3}) // no FinalUS: run never finished
	if p.CritPathUS != 0 {
		t.Errorf("unfinished graph produced a path: %+v", p)
	}
}

// TestDiff: a profile diffed against itself has zero error everywhere, and
// the report renders every quantity present in either profile.
func TestDiff(t *testing.T) {
	p := &Profile{
		ElapsedUS: 100, PathComputeUS: 60, PathTransferUS: 30, PathOverheadUS: 10,
		Wait: []StateTotal{{State: LateSender, Name: LateSender.String(), WaitUS: 7, Count: 2}},
	}
	d := Diff(p, p)
	if d.MaxErrPct() != 0 {
		t.Errorf("self-diff error %v", d.MaxErrPct())
	}
	s := d.String()
	for _, want := range []string{"elapsed", "path-compute", "late-sender"} {
		if !strings.Contains(s, want) {
			t.Errorf("diff report missing %q:\n%s", want, s)
		}
	}
	q := &Profile{ElapsedUS: 110, PathComputeUS: 60, PathTransferUS: 40, PathOverheadUS: 10,
		Wait: p.Wait}
	d = Diff(p, q)
	if got := d.MaxErrPct(); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("max error %v, want %v", got, 100.0/3)
	}
}

// TestReportAndOverlay: the text report mentions the headline quantities,
// JSON encodes, and the overlay paints one span per path segment on the
// dedicated track.
func TestReportAndOverlay(t *testing.T) {
	g := &mpi.DepGraph{
		N: 2,
		Records: [][]mpi.DepRecord{
			nil,
			{{Kind: mpi.DepRecv, Op: mpi.OpRecv, Rank: 1, From: 0, Site: 42,
				Start: 5, Ready: 9, End: 10, FromClock: 3}},
		},
		FinalUS:   []float64{4, 12},
		ElapsedUS: 12,
	}
	p := Analyze(g)
	s := p.String()
	for _, want := range []string{"critical path", "late-sender", "top call sites"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	js, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !strings.Contains(string(js), "\"crit_path_us\":12") {
		t.Errorf("JSON missing crit_path_us:\n%s", js)
	}

	tl := telemetry.NewTimeline()
	Overlay(tl, p)
	if got := tl.SpanCount(); got != len(p.Path) {
		t.Errorf("overlay painted %d spans, want %d", got, len(p.Path))
	}
}
