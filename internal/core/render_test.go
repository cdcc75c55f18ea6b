package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/gogen.golden from the current Go backend")

// TestGoRenderTable drives the Go backend with every operation it maps, under
// every participant-set shape (all/one/range/stride/enum) and every peer form
// (absolute, relative, self, xor, per-rank table, sub-communicator), inside
// nested loops, and compares the text with what the backend produced before
// it shared a writer and a dialect table with the coNCePTuaL and C printers
// (testdata/gogen.golden was recorded by that backend).
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

	g := NewGoGenerator()
	g.Begin(tr)
	k := 0
	event := func(r *trace.RSD) {
		t.Helper()
		k++
		r.CommSize = len(tr.Comms[r.CommID])
		r.Tag = k % 3
		r.Size = []int{0, 1, 1000, 1 << 20}[k%4]
		if k%2 == 0 {
			r.SetComputeSample([]float64{12.3456, 0.004, 100, 1e6}[k/2%4])
		}
		if err := g.Event(r); err != nil {
			t.Fatalf("Event(%v): %v", r, err)
		}
	}
	for depth, ranks := range sets {
		if depth%2 == 1 {
			g.StartLoop(10 * depth)
		}
		for _, op := range p2p {
			for _, peer := range peers {
				event(&trace.RSD{Op: op, Ranks: ranks, Peer: peer})
			}
			// Irregular peers and a sub-communicator's relative peers become a
			// lookup table.
			vec := make([]int, ranks.Size())
			for i := range vec {
				vec[i] = (3*i + 1) % n
			}
			event(&trace.RSD{Op: op, Ranks: ranks, Peer: trace.Param{Kind: trace.ParamVec}, PeerVec: vec})
			event(&trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Peer: trace.RelParam(1)})
			event(&trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Peer: trace.AbsParam(2)})
		}
		g.StartLoop(2)
		for _, op := range colls {
			event(&trace.RSD{Op: op, Ranks: ranks, Root: 3, Counts: []int{4, 8, 12, 16}})
			event(&trace.RSD{Op: op, Ranks: taskset.Of(tr.Comms[1]...), CommID: 1, Root: 2})
		}
		g.EndLoop()
	}
	g.EndLoop()
	g.EndLoop()
	got, err := g.Source()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := g.Source(); again != got {
		t.Error("Source is not repeatable")
	}

	golden := filepath.Join("testdata", "gogen.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("generated Go differs from %s (got %d bytes, want %d)", golden, len(got), len(want))
	}

	// Unresolved wildcards and unmapped operations stay errors.
	for _, r := range []*trace.RSD{
		{Op: mpi.OpRecv, Ranks: sets[0], Peer: trace.Param{Kind: trace.ParamAny}},
		{Op: mpi.OpIrecv, Ranks: sets[0], Peer: trace.Param{Kind: trace.ParamAny}},
		{Op: mpi.Op(250), Ranks: sets[0]},
	} {
		if err := g.Event(r); err == nil {
			t.Errorf("Event(%v) succeeded", r.Op)
		}
	}
}
