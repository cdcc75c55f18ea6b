package mpnet

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/check_golden.json from this checkout's checker")

const goldenPath = "testdata/check_golden.json"

// goldenCase is one net whose exploration is pinned field for field.
type goldenCase struct {
	name      string
	maxStates int
	trace     func(t testing.TB) *trace.Trace
}

// kernelTrace collects a bundled application the way harness.TraceApp
// does (class S, BlueGene/L); harness itself imports this package.
func kernelTrace(name string, n int) func(testing.TB) *trace.Trace {
	return bodyTrace(n, netmodel.BlueGeneL(), apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS)))
}

func bodyTrace(n int, model *netmodel.Model, body func(*mpi.Rank)) func(testing.TB) *trace.Trace {
	return func(t testing.TB) *trace.Trace {
		t.Helper()
		return collectOn(t, n, model, body)
	}
}

// starBody: rank 0 posts n-1 blocking wildcard receives, every other rank
// sends it one message.
func starBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 32)
			}
		} else {
			r.Send(r.World(), 0, 0, 32)
		}
	}
}

// nonblockingWildBody: the star with the wildcards posted as Irecvs and
// demanded by one Waitall; exercises the outstanding-queue state.
func nonblockingWildBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		if r.Rank() == 0 {
			var reqs []*mpi.Request
			for i := 1; i < n; i++ {
				reqs = append(reqs, r.Irecv(c, mpi.AnySource, 3, 16))
			}
			r.Waitall(reqs...)
		} else {
			r.Send(c, 0, 3, 16)
		}
	}
}

// crossCoupledBody is internal/wildcard's adversarial fixture
// (adversarial_test.go): two receivers each post a wildcard receive and
// then a receive from rank 3 while ranks 0 and 3 send one message to each;
// matching a wildcard to rank 3 starves the concrete receive behind it.
func crossCoupledBody(r *mpi.Rank) {
	switch r.Rank() {
	case 0:
		r.Send(r.World(), 1, 0, 64)
		r.Send(r.World(), 2, 0, 64)
	case 3:
		r.Compute(1000)
		r.Send(r.World(), 1, 0, 64)
		r.Send(r.World(), 2, 0, 64)
	case 1, 2:
		r.Recv(r.World(), mpi.AnySource, 0, 64)
		r.Recv(r.World(), 3, 0, 64)
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"lu-4", 1 << 15, kernelTrace("lu", 4)},
		{"lu-4-exhaustive", 0, kernelTrace("lu", 4)}, // 38,201 states: the whole space
		{"lu-8", 1 << 15, kernelTrace("lu", 8)},
		{"lu-16", 1 << 13, kernelTrace("lu", 16)},
		{"bt-16", 1 << 15, kernelTrace("bt", 16)},
		{"sweep3d-16", 1 << 15, kernelTrace("sweep3d", 16)},
		{"figure5", 0, bodyTrace(3, netmodel.BlueGeneL(), figure5Body)},
		{"star-6", 0, bodyTrace(6, netmodel.Ideal(), starBody(6))},
		{"nonblocking-wild-4", 0, bodyTrace(4, netmodel.Ideal(), nonblockingWildBody(4))},
		{"cross-coupled", 0, bodyTrace(4, netmodel.BlueGeneL(), crossCoupledBody)},
	}
}

// goldenNets lowers every golden case once.
func goldenNets(t testing.TB) []*Net {
	t.Helper()
	cases := goldenCases()
	nets := make([]*Net, len(cases))
	for i, gc := range cases {
		net, err := FromTrace(gc.trace(t), nil)
		if err != nil {
			t.Fatalf("%s: FromTrace: %v", gc.name, err)
		}
		nets[i] = net
	}
	return nets
}

// stable strips what differs between binaries from a verdict: call-site
// hashes are built from program counters.
func stable(v *Verdict) *Verdict {
	if v.Counterexample == nil {
		return v
	}
	out := *v
	cx := Counterexample{Blocked: v.Counterexample.Blocked}
	for _, ch := range v.Counterexample.Choices {
		ch.Site = 0
		cx.Choices = append(cx.Choices, ch)
	}
	out.Counterexample = &cx
	return &out
}

// TestCheckGolden pins the exploration itself — states, branch points,
// executions, depth, exhaustiveness and the counterexample — of every
// golden net. The file was recorded by the checker this one replaced
// (per-state clones, a map[string] visited set) and must keep passing
// unchanged: a store or reduction change that alters what is explored, or
// in which order, fails here.
func TestCheckGolden(t *testing.T) {
	cases := goldenCases()
	got := map[string]*Verdict{}
	for i, net := range goldenNets(t) {
		got[cases[i].name] = stable(net.Check(&Options{MaxStates: cases[i].maxStates}))
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]*Verdict{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, the suite %d", len(want), len(got))
	}
	for _, gc := range cases {
		if !reflect.DeepEqual(got[gc.name], want[gc.name]) {
			g, _ := json.Marshal(got[gc.name])
			w, _ := json.Marshal(want[gc.name])
			t.Errorf("%s:\n got  %s\n want %s", gc.name, g, w)
		}
	}
}

// TestCheckDecidesVisitedHitsByBytes reruns the golden cases with the
// visited index's hash cut to three bits, so every lookup walks a chain of
// colliding entries with equal tags: the verdicts stay identical only
// because a hit is decided by comparing the encoded state. Chains that long
// make a lookup linear in the states stored, so the LU cases stop at 2^12
// states here and are compared with the unmasked checker at that bound.
func TestCheckDecidesVisitedHitsByBytes(t *testing.T) {
	cases := goldenCases()
	for i, net := range goldenNets(t) {
		opts := &Options{MaxStates: 1 << 12}
		want := net.Check(opts)
		got, err := net.check(context.Background(), opts, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("%s:\n colliding %s\n hashed    %s", cases[i].name, g, w)
		}
	}
}

// TestCheckAllocationsPerState bounds what exploring a state costs the
// allocator: the store appends to chunks it already holds, so lu@8 up to
// 2^15 states stays under one object and 400 bytes per explored state (the
// cloning checker: 19.6 objects, 3.6 KB).
func TestCheckAllocationsPerState(t *testing.T) {
	net, err := FromTrace(kernelTrace("lu", 8)(t), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	opts := &Options{MaxStates: 1 << 15}
	net.Check(opts) // first use of the telemetry counter, lazy runtime state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := net.Check(opts)
	runtime.ReadMemStats(&after)
	states := float64(v.StatesExplored)
	objects := float64(after.Mallocs-before.Mallocs) / states
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / states
	t.Logf("%d states: %.3f objects, %.0f B per state", v.StatesExplored, objects, bytes)
	if objects >= 1 || bytes >= 400 {
		t.Fatalf("per explored state: %.2f objects, %.0f B; want < 1 and < 400", objects, bytes)
	}
}
