package mpnet

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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

func TestAssignExtraction(t *testing.T) {
	n := 4
	tr := collect(t, n, starBody(n))
	net, err := FromTrace(tr, nil)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	pins, err := wildcard.Assign(tr)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if len(pins[0]) != n-1 {
		t.Fatalf("rank 0 has %d decisions, want %d: %v", len(pins[0]), n-1, pins)
	}
	srcs := map[int]bool{}
	for _, p := range pins[0] {
		srcs[p.Source] = true
	}
	if len(srcs) != n-1 {
		t.Fatalf("decided sources not distinct: %v", pins[0])
	}
	if ok, blocked := net.ForcedRun(pins); !ok {
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

// comparePinned fails t unless wildcard.Assign's pins name exactly the net's
// wildcard events, in strictly increasing event order per rank, and
// net.pin(pins) is the net FromTrace lowers from trace.Pinned(net.Trace,
// pins) in every field the checker reads, both checking alike under opts.
func comparePinned(t testing.TB, net *Net, pins [][]trace.Pin, opts *Options) {
	t.Helper()
	for rank, procs := range net.Procs {
		var wild []int
		for i := range procs {
			if procs[i].Wild {
				wild = append(wild, i)
			}
		}
		var pinned []int
		for _, p := range pins[rank] {
			pinned = append(pinned, p.Event)
		}
		if !slices.Equal(pinned, wild) {
			t.Fatalf("rank %d: pins at events %v, wildcard events %v", rank, pinned, wild)
		}
	}
	pinned := net.pin(pins)
	lowered, err := FromTrace(trace.Pinned(net.Trace, pins), opts)
	if err != nil {
		t.Fatalf("FromTrace(resolved): %v", err)
	}
	if !reflect.DeepEqual(pinned.Chans, lowered.Chans) || pinned.Events != lowered.Events || pinned.Wildcards != lowered.Wildcards {
		t.Fatalf("pinned net: %d channels, %d events, %d wildcards; lowered: %d, %d, %d",
			len(pinned.Chans), pinned.Events, pinned.Wildcards, len(lowered.Chans), lowered.Events, lowered.Wildcards)
	}
	for rank, procs := range lowered.Procs {
		if len(pinned.Procs[rank]) != len(procs) {
			t.Fatalf("rank %d: pinned %d events, lowered %d", rank, len(pinned.Procs[rank]), len(procs))
		}
		for i := range procs {
			p, l := &pinned.Procs[rank][i], &procs[i]
			if p.Kind != l.Kind || p.Peer != l.Peer || p.Wild != l.Wild || p.Tag != l.Tag || p.CommID != l.CommID ||
				p.Chan != l.Chan || !slices.Equal(p.Cands, l.Cands) {
				t.Fatalf("rank %d event %d:\n pinned  %v peer %d wild %v tag %d comm %d chan %d cands %v\n lowered %v peer %d wild %v tag %d comm %d chan %d cands %v",
					rank, i, p.Kind, p.Peer, p.Wild, p.Tag, p.CommID, p.Chan, p.Cands, l.Kind, l.Peer, l.Wild, l.Tag, l.CommID, l.Chan, l.Cands)
			}
		}
	}
	if pv, lv := pinned.Check(opts), lowered.Check(opts); !reflect.DeepEqual(pv, lv) {
		g, _ := json.Marshal(pv)
		w, _ := json.Marshal(lv)
		t.Fatalf("verdicts differ:\n pinned  %s\n lowered %s", g, w)
	}
}

// TestPinMatchesLowering: for every golden net with wildcards that
// Algorithm 2 resolves, the pinned net verify checks is the second lowering
// it replaced.
func TestPinMatchesLowering(t *testing.T) {
	cases := goldenCases()
	compared := 0
	for i, net := range goldenNets(t) {
		if net.Wildcards == 0 {
			continue
		}
		pins, err := wildcard.Assign(net.Trace)
		if err != nil {
			continue // figure5: the resolver deadlocks
		}
		t.Run(cases[i].name, func(t *testing.T) {
			comparePinned(t, net, pins, &Options{MaxStates: cases[i].maxStates})
		})
		compared++
	}
	if compared < 6 {
		t.Fatalf("compared %d golden nets, want the 6 resolvable wildcard nets", compared)
	}
}

// TestFromTraceBoundedPresize: a rank's events are counted before they are
// expanded, and the count saturates, so a trace whose nested loops expand
// past MaxEvents — or past what an int holds — is refused having allocated
// at most one MaxEvents-sized event list, not a doubling sequence of them.
// The count is exact: every golden and random net's event lists are full.
func TestFromTraceBoundedPresize(t *testing.T) {
	nets := goldenNets(t)
	for seed := int64(0); seed < 50; seed++ {
		nets = append(nets, randomNet(t, rand.New(rand.NewSource(seed))))
	}
	for ni, net := range nets {
		for rank, procs := range net.Procs {
			if len(procs) != cap(procs) {
				t.Fatalf("net %d rank %d: %d events in a list sized %d", ni, rank, len(procs), cap(procs))
			}
		}
	}

	const maxEvents = 1 << 12
	send := "rsd op=Send site=1 ranks=0 comm=0 csize=2 peer=abs1 tag=0 size=8 root=-1\n"
	recv := "rsd op=Recv site=2 ranks=1 comm=0 csize=2 peer=abs0 tag=0 size=8 root=-1\n"
	for _, tc := range []struct{ name, rank0, rank1 string }{
		{"product overflows int", "1\nloop 1073741824 1\nloop 1073741824 1\nloop 1073741824 1\n" + send, "0\n"},
		{"past MaxEvents", "1\nloop 5000 1\n" + send, "0\n"},
		{"past MaxEvents in a second loop", "2\nloop 4000 1\n" + send + "loop 4000 1\n" + send, "0\n"},
		{"past MaxEvents on the second rank", "1\nloop 4000 1\n" + send, "1\nloop 4000 1\n" + recv},
	} {
		tr, err := trace.Decode(strings.NewReader("scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 2\ngroup 0 " + tc.rank0 + "group 1 " + tc.rank1))
		if err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		opts := &Options{MaxEvents: maxEvents}
		if _, err := FromTrace(tr, opts); err == nil || !strings.Contains(err.Error(), "MaxEvents") {
			t.Fatalf("%s: FromTrace error %v, want the MaxEvents refusal", tc.name, err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { FromTrace(tr, opts) })
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		budget := 2 * float64(maxEvents) * float64(unsafe.Sizeof(Event{}))
		t.Logf("%s: %.0f allocations, %.0f B per refused lowering (budget %.0f B)", tc.name, allocs, perRun, budget)
		if perRun > budget || allocs > 16 {
			t.Errorf("%s: a refused lowering made %.0f allocations of %.0f B, want <= 16 and at most twice a MaxEvents-sized event list (%.0f B)",
				tc.name, allocs, perRun, budget)
		}
	}
}
