package repro

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/critpath"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// critTol is the relative slack allowed between the summed critical-path
// segments and the run's elapsed virtual time. The walk telescopes exactly;
// only floating-point re-association across thousands of segment sums can
// open a gap.
const critTol = 1e-6

// TestCritPathInvariantAllKernels pins the profiler's core correctness
// property on every kernel, for the application run (coroutine ranks) and for
// the cursor replay of its trace (stackless ranks, whose waits record through
// other wake paths): the backward walk's segments partition the makespan, so
// their sum equals the slowest rank's final clock exactly (up to float
// association). A hook that records a wrong Start/Ready/End or a wake path
// with no record at all breaks the telescoping and shows up here as a gap.
func TestCritPathInvariantAllKernels(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			g := mpi.NewDepGraph()
			res, traceBytes, _ := runKernel(t, name, n, mpi.WithCausalProfile(g))
			checkCritPath(t, "app run", g, res)
			tr, err := trace.Decode(bytes.NewReader(traceBytes))
			if err != nil {
				t.Fatalf("decode trace: %v", err)
			}
			g = mpi.NewDepGraph()
			res, err = replay.Replay(tr, netmodel.BlueGeneL(), mpi.WithCausalProfile(g))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			checkCritPath(t, "cursor replay", g, res)
		})
	}
}

// checkCritPath checks one profiled run's graph against its result: the
// profile's elapsed time is the slowest rank's clock, the critical path
// telescopes to it, and the path is one contiguous chain through virtual time.
func checkCritPath(t *testing.T, what string, g *mpi.DepGraph, res *mpi.Result) {
	t.Helper()
	p := critpath.Analyze(g)
	if p.Truncated {
		t.Fatalf("%s: dependency graph truncated on a Class S kernel", what)
	}
	want := 0.0
	for _, us := range res.PerRankUS {
		want = math.Max(want, us)
	}
	if p.ElapsedUS != want {
		t.Errorf("%s: profile elapsed %v, slowest rank %v", what, p.ElapsedUS, want)
	}
	if !reflect.DeepEqual(g.FinalUS, res.PerRankUS) {
		t.Errorf("%s: graph's final clocks differ from the run's", what)
	}
	if d := math.Abs(p.CritPathUS-p.ElapsedUS) / p.ElapsedUS; d > critTol {
		t.Errorf("%s: critical path %v != elapsed %v (rel gap %g)",
			what, p.CritPathUS, p.ElapsedUS, d)
	}
	if p.Records != g.Total() {
		t.Errorf("%s: profile records %d, graph %d", what, p.Records, g.Total())
	}
	if len(p.Path) == 0 {
		t.Fatalf("%s: empty critical path", what)
	}
	// The path is one contiguous chain through virtual time: each segment
	// starts where the previous ended (jumps between ranks preserve the
	// clock), ending at the makespan.
	if last := p.Path[len(p.Path)-1]; last.EndUS != p.ElapsedUS {
		t.Errorf("%s: path ends at %v, elapsed %v", what, last.EndUS, p.ElapsedUS)
	}
	for i := 1; i < len(p.Path); i++ {
		if p.Path[i].StartUS != p.Path[i-1].EndUS {
			t.Fatalf("%s: path gap at segment %d: %v -> %v",
				what, i, p.Path[i-1].EndUS, p.Path[i].StartUS)
		}
	}
}

// TestCritPathOnOffBitIdentical proves the profiler is observation-only:
// attaching WithCausalProfile must not move a single clock, trace byte or
// mpiP counter on any kernel. The event engine is deterministic, so the
// comparison is exact even for the ANY-source kernels.
func TestCritPathOnOffBitIdentical(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			off, offTrace, offProf := runKernel(t, name, n)
			g := mpi.NewDepGraph()
			on, onTrace, onProf := runKernel(t, name, n, mpi.WithCausalProfile(g))
			if !bytes.Equal(offTrace, onTrace) {
				t.Error("encoded traces differ between profiler off and on")
			}
			if report := mpip.Diff(offProf, onProf); !report.Match() {
				t.Errorf("mpiP profiles differ between profiler off and on:\n%s", report)
			}
			for i := range off.PerRankUS {
				if on.PerRankUS[i] != off.PerRankUS[i] {
					t.Errorf("rank %d clock: off %v, on %v", i, off.PerRankUS[i], on.PerRankUS[i])
				}
			}
			if g.Total() == 0 {
				t.Error("profiled run recorded no dependencies")
			}
		})
	}
}

// goldenModel is a network whose every cost is a small integer: 10us
// latency, infinite bandwidth, 1us send and 2us receive overhead, no
// noise, no flow control. Pipeline timing under it is exact in float64.
func goldenModel() *netmodel.Model {
	return &netmodel.Model{
		Name:                "golden",
		LatencyUS:           10,
		BandwidthBytesPerUS: math.Inf(1),
		SendOverheadUS:      1,
		RecvOverheadUS:      2,
		EagerLimit:          1 << 30,
	}
}

// goldenRingBody is a 4-stage pipeline whose critical path is known by
// construction: rank 0 computes 150us and sends; each later rank computes
// 100us, receives from its predecessor, computes 50us more, and forwards.
// The longest chain threads every rank in order.
func goldenRingBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.World()
		me := r.Rank()
		r.Compute(100)
		if me > 0 {
			r.Recv(w, me-1, 0, 1024)
		}
		r.Compute(50)
		if me < n-1 {
			r.Send(w, me+1, 0, 1024)
		}
	}
}

// TestCritPathGoldenRing checks the analysis against hand-derived numbers
// on the pipeline above with n=4, for the coroutine app run and the cursor
// replay of its trace, whose records must equal the app run's one for one.
//
// Derivation (clock per rank; send overhead 1 is paid before departure):
//
//	rank 0: compute 150, send -> departs 151, arrives 161
//	rank r: posts recv at 100, completes at arrive+2, computes 50,
//	        departs at arrive+53, next arrival = arrive+63
//	arrivals: 161, 224, 287; rank 3 finishes 287+2+50 = 339
//
// Path (forward): rank 0 compute [0,151] (its send overhead is local work),
// then per hop transfer 10 + recv overhead 2, and compute 51 on ranks 1-2
// (50 + their own send overhead), 50 on rank 3:
//
//	compute 151 + 51 + 51 + 50 = 303, transfer 3*10 = 30, overhead 3*2 = 6
//
// Recorded waits: each receiver posted at 100 and woke at its arrival, so
// late-sender = (161-100) + (224-100) + (287-100) = 372.
func TestCritPathGoldenRing(t *testing.T) {
	const n = 4
	check := func(t *testing.T, g *mpi.DepGraph) *critpath.Profile {
		t.Helper()
		p := critpath.Analyze(g)
		exact := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s = %v, want %v", name, got, want)
			}
		}
		exact("elapsed", p.ElapsedUS, 339)
		exact("critical path", p.CritPathUS, 339)
		exact("path compute", p.PathComputeUS, 303)
		exact("path transfer", p.PathTransferUS, 30)
		exact("path overhead", p.PathOverheadUS, 6)
		var lateSender float64
		for _, st := range p.Wait {
			if st.Name == "late-sender" {
				lateSender = st.WaitUS
			}
		}
		exact("late-sender", lateSender, 372)
		// The chain must thread every rank in pipeline order.
		last := int32(-1)
		for _, s := range p.Path {
			if s.Rank < last {
				t.Fatalf("path visits rank %d after rank %d", s.Rank, last)
			}
			last = s.Rank
		}
		if last != n-1 {
			t.Fatalf("path ends on rank %d, want %d", last, n-1)
		}
		return p
	}

	col := trace.NewCollector(n)
	gApp := mpi.NewDepGraph()
	_, err := mpi.Run(n, goldenModel(), goldenRingBody(n),
		mpi.WithTracer(col.TracerFor), mpi.WithCausalProfile(gApp))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	check(t, gApp)

	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	tr, err := trace.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	g := mpi.NewDepGraph()
	if _, err := replay.Replay(tr, goldenModel(), mpi.WithCausalProfile(g)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	check(t, g)
	if !reflect.DeepEqual(gApp.Records, g.Records) {
		t.Error("cursor replay records differ from the app run")
	}
}
