package align

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/golden"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// splitBody is a kernel none of internal/apps provides: collectives on
// sub-communicators, reached from two call sites, between ring exchanges
// inside each sub-communicator.
func splitBody(r *mpi.Rank) {
	parity := r.CommSplit(r.World(), r.Rank()%2, r.Rank())
	me, _ := parity.CommRank(r.Rank())
	for it := 0; it < 5; it++ {
		r.Compute(30 + 2*float64(r.Rank()) + float64(it))
		rq := r.Irecv(parity, (me+parity.Size()-1)%parity.Size(), 3, 128)
		sq := r.Isend(parity, (me+1)%parity.Size(), 3, 128)
		r.Waitall(rq, sq)
		if r.Rank() < 6 {
			r.Allreduce(parity, 32) // call site A
		} else {
			r.Allreduce(parity, 32) // call site B
		}
	}
	r.Barrier(r.World())
}

// goldenEntry is one kernel's line of testdata/align_golden.json.
type goldenEntry struct {
	Digest string `json:"digest"`
	Nodes  int    `json:"nodes"`
	Events int    `json:"events"`
}

// TestAlignGolden pins Algorithm 1's output by bits: per kernel the
// traceDigest of the aligned trace. testdata/align_golden.json's node and
// event counts were recorded by the pass that walked one traversal context
// per rank; whatever walks the trace now has to reproduce the file unchanged,
// and it needs no second implementation to say "wrong". Only a deliberate
// change to what Algorithm 1 emits may regenerate it:
// `go test -run AlignGolden ./internal/align/ -update -v`.
func TestAlignGolden(t *testing.T) {
	const S, A = apps.ClassS, apps.ClassA
	want := golden.LoadMap(t, filepath.Join("testdata", "align_golden.json"))
	check := func(name string, tr *trace.Trace) {
		aligned, err := Align(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want.Check(t, name, goldenEntry{traceDigest(t, aligned), aligned.NodeCount(), aligned.TotalEvents()})
	}
	for _, k := range []struct {
		app   string
		n     int
		class apps.Class
	}{
		{"sweep3d", 64, A}, {"sweep3d", 36, A}, {"lu", 16, S}, {"lu", 64, A}, {"halo2d", 36, S},
		{"pingpong", 64, S}, {"is", 64, S}, {"is", 64, A}, {"bt", 64, S}, {"cg", 64, S},
	} {
		check(fmt.Sprintf("%s-%d/%c", k.app, k.n, k.class), alignInput(t, k.app, k.n, k.class))
	}
	check("split-12", collect(t, 12, splitBody))
}
