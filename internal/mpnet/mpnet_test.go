package mpnet

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

func collect(t testing.TB, n int, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	return collectOn(t, n, netmodel.Ideal(), body)
}

func collectOn(t testing.TB, n int, model *netmodel.Model, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, model, body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

func ringBody(r *mpi.Rank) {
	c := r.World()
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() - 1 + r.Size()) % r.Size()
	for i := 0; i < 3; i++ {
		req := r.Isend(c, next, 7, 64)
		r.Recv(c, prev, 7, 64)
		r.Wait(req)
	}
	r.Barrier(c)
}

// figure5Body reproduces the paper's Figure 5 potential deadlock (the
// examples/deadlock shape): rank 1's wildcard receive may consume rank
// 0's message, starving the following concrete Recv(0). The compute
// delay makes the *traced* execution match rank 2 and complete — the
// hazard is invisible to the run and only the model can see it.
func figure5Body(r *mpi.Rank) {
	c := r.World()
	switch r.Rank() {
	case 0:
		r.Compute(100)
		r.Send(c, 1, 0, 8)
	case 2:
		r.Send(c, 1, 0, 8)
	}
	r.Barrier(c)
	if r.Rank() == 1 {
		r.Recv(c, mpi.AnySource, 0, 8)
		r.Recv(c, 0, 0, 8)
	}
}

// collectFigure5 traces figure5Body under a real latency model so the
// traced execution completes (the wildcard matches rank 2).
func collectFigure5(t testing.TB) *trace.Trace {
	t.Helper()
	return collectOn(t, 3, netmodel.BlueGeneL(), figure5Body)
}

func TestFromTraceRing(t *testing.T) {
	n := 4
	net, err := FromTrace(collect(t, n, ringBody), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	if net.N != n || net.Wildcards != 0 {
		t.Fatalf("net: N=%d wildcards=%d", net.N, net.Wildcards)
	}
	// One channel per directed ring edge.
	if len(net.Chans) != n {
		t.Fatalf("channels = %d, want %d", len(net.Chans), n)
	}
	// Per rank: Init + 3x(Isend, Recv, Wait) + Barrier + Finalize.
	for rank := 0; rank < n; rank++ {
		if got := len(net.Procs[rank]); got != 12 {
			t.Fatalf("rank %d has %d events:\n%v", rank, got, net.Procs[rank])
		}
	}
}

func TestCheckRingDeadlockFree(t *testing.T) {
	net, err := FromTrace(collect(t, 4, ringBody), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	v := net.Check(nil)
	if !v.DeadlockFree || !v.Exhaustive {
		t.Fatalf("verdict: %+v", v)
	}
	if v.Executions != 1 || v.BranchPoints != 0 {
		t.Fatalf("deterministic net explored %d executions, %d branch points",
			v.Executions, v.BranchPoints)
	}
}

func TestCheckFindsFigure5Deadlock(t *testing.T) {
	net, err := FromTrace(collectFigure5(t), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	v := net.Check(nil)
	if v.DeadlockFree || v.Counterexample == nil {
		t.Fatalf("checker missed the Figure 5 deadlock: %+v", v)
	}
	// The minimal counterexample is a single commitment: the wildcard
	// takes rank 0's message.
	cx := v.Counterexample
	if len(cx.Choices) != 1 {
		t.Fatalf("counterexample has %d choices, want 1: %+v", len(cx.Choices), cx)
	}
	if c := cx.Choices[0]; c.Rank != 1 || c.Source != 0 {
		t.Fatalf("counterexample choice = %+v, want rank 1 matching source 0", c)
	}
	if len(cx.Blocked) == 0 {
		t.Fatalf("counterexample carries no blocked report")
	}
}

func TestCounterexampleReplayConfirms(t *testing.T) {
	tr := collectFigure5(t)
	net, err := FromTrace(tr, nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	v := net.Check(nil)
	if v.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	pinned, err := CounterexampleTrace(net, v.Counterexample)
	if err != nil {
		t.Fatalf("CounterexampleTrace: %v", err)
	}
	if wildcard.Present(pinned) {
		t.Fatalf("counterexample trace still has wildcards:\n%s", pinned)
	}
	confirmed, rerr := ConfirmCounterexample(net, v.Counterexample, netmodel.Ideal())
	if !confirmed {
		t.Fatalf("engine did not confirm the deadlock: %v", rerr)
	}
	if !errors.Is(rerr, mpi.ErrDeadlock) {
		t.Fatalf("confirmation error = %v, want the engine's proven-deadlock report", rerr)
	}
}

func TestVerifyFigure5AgreesWithResolver(t *testing.T) {
	rep, _, err := verify(context.Background(), collectFigure5(t), nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.DeadlockFree() {
		t.Fatalf("report claims deadlock-free: %+v", rep)
	}
	// Algorithm 2's own traversal also gets stuck on Figure 5, so the
	// sufficient condition and the exhaustive check agree here.
	if rep.ResolverDeadlock == "" {
		t.Fatalf("resolver deadlock not recorded: %+v", rep)
	}
	if rep.Verdict.Counterexample == nil {
		t.Fatalf("no counterexample in report")
	}
}

func TestVerifyStarResolutionAdmitted(t *testing.T) {
	n := 6
	tr := collect(t, n, starBody(n))
	rep, _, err := verify(context.Background(), tr, nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.DeadlockFree() {
		t.Fatalf("star pattern not deadlock-free: %+v", rep.Verdict)
	}
	if !rep.ResolverAdmitted {
		t.Fatalf("resolver assignment rejected: %v", rep.ResolverBlocked)
	}
	if rep.ResolvedVerdict == nil || !rep.ResolvedVerdict.DeadlockFree {
		t.Fatalf("resolved trace not proven deadlock-free: %+v", rep.ResolvedVerdict)
	}
	if rep.Wildcards != n-1 {
		t.Fatalf("wildcards = %d, want %d", rep.Wildcards, n-1)
	}
	// All 5 senders interchangeable: the reduced space is the subsets of
	// consumed sources.
	if rep.Verdict.BranchPoints == 0 || rep.Verdict.MaxChoiceDepth != n-1 {
		t.Fatalf("exploration shape: %+v", rep.Verdict)
	}
}

func TestVerifyNonblockingWildcards(t *testing.T) {
	// Wildcards posted as Irecvs and demanded by Waitall; exercises the
	// outstanding-queue state and slot matching.
	n := 4
	tr := collect(t, n, nonblockingWildBody(n))
	rep, _, err := verify(context.Background(), tr, nil)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.DeadlockFree() || !rep.ResolverAdmitted {
		t.Fatalf("report: %+v", rep)
	}
}

func TestCheckMaxStatesBounds(t *testing.T) {
	n := 6
	tr := collect(t, n, starBody(n))
	net, err := FromTrace(tr, nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	v := net.Check(&Options{MaxStates: 3})
	if v.Exhaustive || v.DeadlockFree {
		t.Fatalf("bounded search claims exhaustive proof: %+v", v)
	}
}

func TestFromTraceMaxEventsBounds(t *testing.T) {
	tr := collect(t, 4, ringBody)
	if _, err := FromTrace(tr, &Options{MaxEvents: 8}); err == nil {
		t.Fatal("expansion bound not enforced")
	}
}

func TestExportJSON(t *testing.T) {
	net, err := FromTrace(collectFigure5(t), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	raw, err := ExportJSON(net)
	if err != nil {
		t.Fatalf("ExportJSON: %v", err)
	}
	var doc struct {
		NProcs   int               `json:"nprocs"`
		Channels []json.RawMessage `json:"channels"`
		Procs    [][]struct {
			Kind         string `json:"kind"`
			Alternatives []struct {
				Source int `json:"source"`
			} `json:"alternatives"`
		} `json:"procs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if doc.NProcs != 3 || len(doc.Channels) != len(net.Chans) || len(doc.Procs) != 3 {
		t.Fatalf("artifact shape: nprocs=%d channels=%d procs=%d", doc.NProcs, len(doc.Channels), len(doc.Procs))
	}
	// Rank 1's wildcard must list both enabled sources.
	found := false
	for _, tr := range doc.Procs[1] {
		if tr.Kind == "recv-any" {
			found = true
			if len(tr.Alternatives) != 2 {
				t.Fatalf("wildcard alternatives = %+v, want sources 0 and 2", tr.Alternatives)
			}
		}
	}
	if !found {
		t.Fatal("wildcard transition family missing from artifact")
	}
}

func TestExportTLA(t *testing.T) {
	net, err := FromTrace(collectFigure5(t), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	mod, err := ExportTLA(net, "Figure5")
	if err != nil {
		t.Fatalf("ExportTLA: %v", err)
	}
	for _, want := range []string{
		"---- MODULE Figure5 ----", "Init ==", "Next ==", "recv-any", "Spec ==", "====",
	} {
		if !strings.Contains(mod, want) {
			t.Fatalf("TLA module missing %q:\n%s", want, mod)
		}
	}
	// Rendering is deterministic (the artifact is content-addressed by
	// the service cache).
	again, err := ExportTLA(net, "Figure5")
	if err != nil || mod != again {
		t.Fatalf("TLA rendering not deterministic (err=%v)", err)
	}
}

// multiCommBody splits the world twice and duplicates it, so the trace's
// communicator table holds several entries beside the world's.
func multiCommBody(r *mpi.Rank) {
	w := r.World()
	halves := r.CommSplit(w, r.Rank()/4, r.Rank())
	parity := r.CommSplit(w, r.Rank()%2, r.Rank())
	dup := r.CommDup(w)
	r.Allreduce(halves, 8)
	r.Bcast(parity, 0, 16)
	r.Barrier(dup)
	r.Send(w, (r.Rank()+1)%r.Size(), 0, 32)
	r.Recv(w, mpi.AnySource, 0, 32)
}

// TestExportTLAIsAFunctionOfTheTrace renders a trace with four communicators
// twenty times: CommGroup used to come out in map order (six distinct modules
// in fifty renderings), which broke benchd's "a Result is a pure function of
// its Request" for lang=tla.
func TestExportTLAIsAFunctionOfTheTrace(t *testing.T) {
	net, err := FromTrace(collect(t, 8, multiCommBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Trace.Comms) < 4 {
		t.Fatalf("premise: %d communicators, want the world's and three more", len(net.Trace.Comms))
	}
	first, err := ExportTLA(net, "M")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		if again, _ := ExportTLA(net, "M"); again != first {
			t.Fatalf("rendering %d differs from the first", i)
		}
	}
	if !strings.Contains(first, "CommGroup ==\n  0 :> {1, 2, 3, 4, 5, 6, 7, 8}\n  @@ 1 :> {") {
		t.Errorf("CommGroup does not start with the world, then communicator 1:\n%s", first[strings.Index(first, "CommGroup =="):][:200])
	}
}

func TestExportTLABounds(t *testing.T) {
	tr := collect(t, 2, func(r *mpi.Rank) {
		c := r.World()
		peer := 1 - r.Rank()
		for i := 0; i < 3000; i++ {
			if r.Rank() == 0 {
				r.Send(c, peer, 0, 8)
			} else {
				r.Recv(c, peer, 0, 8)
			}
		}
	})
	net, err := FromTrace(tr, nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	if _, err := ExportTLA(net, ""); err == nil {
		t.Fatal("TLA bound not enforced")
	}
}

func TestResolverAssignmentExtraction(t *testing.T) {
	n := 4
	tr := collect(t, n, starBody(n))
	net, err := FromTrace(tr, nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	resolved, err := wildcard.Resolve(tr)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	assign, err := ResolverAssignment(net, resolved)
	if err != nil {
		t.Fatalf("ResolverAssignment: %v", err)
	}
	if len(assign) != n-1 {
		t.Fatalf("extracted %d assignments, want %d: %v", len(assign), n-1, assign)
	}
	srcs := map[int]bool{}
	for _, src := range assign {
		srcs[src] = true
	}
	if len(srcs) != n-1 {
		t.Fatalf("assignment sources not distinct: %v", assign)
	}
	if ok, blocked := net.ForcedRun(assign); !ok {
		t.Fatalf("resolver assignment rejected: %v", blocked)
	}
}

// TestFromTraceReceiveWiring recomputes every receive instance's candidate
// channels and enabled sources with one scan of the channel table per
// instance — what FromTrace did before it shared them per receive shape —
// and requires the shared wiring to be equal, nil where nothing matches.
func TestFromTraceReceiveWiring(t *testing.T) {
	nets := goldenNets(t)
	for seed := int64(0); seed < 50; seed++ {
		nets = append(nets, randomNet(t, rand.New(rand.NewSource(seed))))
	}
	for ni, net := range nets {
		for rank, procs := range net.Procs {
			for i := range procs {
				ev := &procs[i]
				var cands []int32
				var sources []int
				var srcChans [][]int32
				if ev.Kind == EvRecv || ev.Kind == EvRecvAny || ev.Kind == EvIrecv {
					for src := 0; src < net.N; src++ {
						var chs []int32
						for ci, key := range net.Chans {
							if key.Dst == rank && key.Src == src && key.CommID == ev.CommID &&
								(ev.Tag == mpi.AnyTag || key.Tag == ev.Tag) {
								chs = append(chs, int32(ci))
							}
						}
						switch {
						case len(chs) == 0:
						case ev.Wild:
							sources, srcChans = append(sources, src), append(srcChans, chs)
						case src == ev.Peer:
							cands = chs
						}
					}
				}
				if !reflect.DeepEqual(ev.Cands, cands) || !reflect.DeepEqual(ev.Sources, sources) ||
					!reflect.DeepEqual(ev.SrcChans, srcChans) {
					t.Fatalf("net %d rank %d event %d (%v): wired cands %v sources %v chans %v, want %v %v %v",
						ni, rank, i, ev.Kind, ev.Cands, ev.Sources, ev.SrcChans, cands, sources, srcChans)
				}
			}
		}
	}
}

// TestSleepKeyLimits: the limits FromTrace enforces are exactly what a
// sleep key holds — the largest admitted option round-trips, keys order
// like (rank, event, channel), and a net past a limit is refused by name.
func TestSleepKeyLimits(t *testing.T) {
	last := option{rank: MaxRanks - 1, ev: MaxRankEvents - 1, ch: MaxChannels - 1}
	ordered := []option{
		{0, 0, 0}, {0, 0, last.ch}, {0, 1, 0}, {0, last.ev, last.ch}, {1, 0, 0}, {last.rank, 0, 0}, last,
	}
	for i, o := range ordered {
		if keyRank(o.key()) != o.rank {
			t.Errorf("%+v: key %#x carries rank %d", o, o.key(), keyRank(o.key()))
		}
		if i > 0 && ordered[i-1].key() >= o.key() {
			t.Errorf("key(%+v) = %#x is not below key(%+v) = %#x", ordered[i-1], ordered[i-1].key(), o, o.key())
		}
	}
	if DefaultMaxEvents > MaxRankEvents {
		t.Errorf("DefaultMaxEvents %d admits a rank past MaxRankEvents %d", DefaultMaxEvents, MaxRankEvents)
	}

	ring := collect(t, 4, ringBody)
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		opts *Options
		want error
	}{
		{"ring, default bounds", ring, nil, nil},
		{"ring, MaxEvents above the per-rank limit", ring, &Options{MaxEvents: 2 * MaxRankEvents}, nil},
		{"one rank too many", &trace.Trace{N: MaxRanks + 1}, nil, ErrNetTooLarge},
	} {
		if _, err := FromTrace(tc.tr, tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("%s: FromTrace error = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCheckRootDeadlock: a net stuck before any wildcard commitment yields a
// counterexample with no choices — nil, so a report renders it as it always
// has ("choices": null).
func TestCheckRootDeadlock(t *testing.T) {
	col := trace.NewCollector(2)
	for rank := 0; rank < 2; rank++ {
		ev := mpi.Event{Op: mpi.OpRecv, Rank: rank, CallSite: 1, CommSize: 2, Peer: 1 - rank, Size: 8, Root: -1}
		col.TracerFor(rank).Record(&ev)
	}
	net, err := FromTrace(col.Trace(), nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	v := net.Check(nil)
	if v.Counterexample == nil || v.Counterexample.Choices != nil || len(v.Counterexample.Blocked) != 2 {
		t.Fatalf("verdict %+v, counterexample %+v", v, v.Counterexample)
	}
}
