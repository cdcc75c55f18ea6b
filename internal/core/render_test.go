package core

import (
	"path/filepath"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/golden"
	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// TestGoRenderTable drives the Go generator with every operation the trace
// records, under every participant-set shape (all/one/range/stride/enum) and
// every peer form (absolute, relative, self, xor, per-rank table,
// sub-communicator), inside nested loops of one group's sequence. The Go text
// must be the Go dialect of the coNCePTuaL program the same trace builds, and
// that program is held to testdata/render_table.golden, so the trace-to-program
// mapping behind the Go text is pinned here and its printing in conceptual's
// render.golden.
func TestGoRenderTable(t *testing.T) {
	const n = 16
	tr := &trace.Trace{N: n, Comms: map[int][]int{0: nil, 1: {2, 5, 7, 11}}}
	for w := 0; w < n; w++ {
		tr.Comms[0] = append(tr.Comms[0], w)
	}
	sets := []taskset.Set{
		taskset.Range(0, n-1),
		taskset.Of(3),
		taskset.Range(2, 5),
		taskset.Strided(1, 4, 4),
		taskset.Of(0, 3, 4, 9),
	}
	peers := []trace.Param{trace.AbsParam(0), trace.AbsParam(7), trace.RelParam(0), trace.RelParam(1),
		trace.RelParam(15), trace.XorParam(1), trace.XorParam(8)}
	p2p := []mpi.Op{mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv}
	colls := []mpi.Op{mpi.OpInit, mpi.OpWait, mpi.OpWaitall, mpi.OpBarrier, mpi.OpBcast, mpi.OpReduce,
		mpi.OpGather, mpi.OpGatherv, mpi.OpAllreduce, mpi.OpAllgather, mpi.OpAllgatherv, mpi.OpScatter,
		mpi.OpScatterv, mpi.OpAlltoall, mpi.OpAlltoallv, mpi.OpReduceScatter, mpi.OpCommSplit, mpi.OpFinalize}

	// One group's sequence; cur is the innermost open loop's body.
	var seq []trace.Node
	cur := &seq
	k := 0
	event := func(body *[]trace.Node, r *trace.RSD) {
		k++
		r.CommSize = len(tr.Comms[r.CommID])
		r.Tag = k % 3
		r.Size = []int{0, 1, 1000, 1 << 20}[k%4]
		if k%2 == 0 {
			r.SetComputeSample([]float64{12.3456, 0.004, 100, 1e6}[k/2%4])
		}
		*body = append(*body, r)
	}
	for depth, ranks := range sets {
		if depth%2 == 1 {
			loop := &trace.Loop{Iters: 10 * depth}
			*cur = append(*cur, loop)
			cur = &loop.Body
		}
		for _, op := range p2p {
			for _, peer := range peers {
				event(cur, &trace.RSD{Op: op, Ranks: ranks, Peer: peer})
			}
			// Irregular peers and a sub-communicator's relative peers are
			// partitioned by world-rank offset.
			vec := make([]int, ranks.Size())
			for i := range vec {
				vec[i] = (3*i + 1) % n
			}
			event(cur, &trace.RSD{Op: op, Ranks: ranks, Peer: trace.Param{Kind: trace.ParamVec}, PeerVec: vec})
			event(cur, &trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Peer: trace.RelParam(1)})
			event(cur, &trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Peer: trace.AbsParam(2)})
		}
		inner := &trace.Loop{Iters: 2}
		*cur = append(*cur, inner)
		for _, op := range colls {
			event(&inner.Body, &trace.RSD{Op: op, Ranks: ranks, Root: 3, Counts: []int{4, 8, 12, 16}})
			event(&inner.Body, &trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Root: 2})
		}
	}
	tr.Groups = []trace.Group{{Ranks: sets[0], Seq: seq}}

	g := NewGoGenerator()
	ref := NewConceptualGenerator(nil)
	for _, gen := range []CodeGenerator{g, ref} {
		if err := Traverse(tr, gen); err != nil {
			t.Fatalf("Traverse(%T): %v", gen, err)
		}
	}
	got, err := g.Source()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := g.Source(); again != got {
		t.Error("Source is not repeatable")
	}
	prog, err := ref.Program()
	if err != nil {
		t.Fatal(err)
	}
	if want := conceptual.GenerateGo(prog); got != want {
		t.Errorf("Go source is not the Go dialect of the coNCePTuaL program:\n%s", golden.Diff([]byte(got), []byte(want)))
	}
	golden.Text(t, filepath.Join("testdata", "render_table.golden"), []byte(conceptual.Print(prog)))

	// Unresolved wildcards and unmapped operations stay errors.
	for _, r := range []*trace.RSD{
		{Op: mpi.OpRecv, Ranks: sets[0], Peer: trace.Param{Kind: trace.ParamAny}},
		{Op: mpi.OpIrecv, Ranks: sets[0], Peer: trace.Param{Kind: trace.ParamAny}},
		{Op: mpi.Op(250), Ranks: sets[0]},
	} {
		one := &trace.Trace{N: n, Comms: tr.Comms, Groups: []trace.Group{{Ranks: sets[0], Seq: []trace.Node{r}}}}
		if err := Traverse(one, g); err == nil {
			t.Errorf("Traverse of a %v leaf succeeded", r.Op)
		}
	}
}
