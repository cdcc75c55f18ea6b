package align

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/align_golden.json from this checkout's Align")

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
// traceDigest of the aligned trace. testdata/align_golden.json was recorded
// by the pass that walked one traversal context per rank; whatever walks
// the trace now has to reproduce it unchanged, and the file needs no second
// implementation to say "wrong". Only a deliberate change to what Algorithm
// 1 emits may regenerate it:
// `go test -run AlignGolden ./internal/align/ -update`.
func TestAlignGolden(t *testing.T) {
	const S, A = apps.ClassS, apps.ClassA
	got := map[string]goldenEntry{}
	record := func(name string, tr *trace.Trace) {
		aligned, err := Align(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenEntry{traceDigest(aligned), aligned.NodeCount(), aligned.TotalEvents()}
	}
	for _, k := range []struct {
		app   string
		n     int
		class apps.Class
	}{
		{"sweep3d", 64, A}, {"sweep3d", 36, A}, {"lu", 16, S}, {"lu", 64, A}, {"halo2d", 36, S},
		{"pingpong", 64, S}, {"is", 64, S}, {"is", 64, A}, {"bt", 64, S}, {"cg", 64, S},
	} {
		record(fmt.Sprintf("%s-%d/%c", k.app, k.n, k.class), alignInput(t, k.app, k.n, k.class))
	}
	record("split-12", collect(t, 12, splitBody))

	golden := filepath.Join("testdata", "align_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden entry (run with -update after adding a kernel)", key)
		} else if g != w {
			t.Errorf("%s: aligned trace %+v, golden %+v", key, g, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry for a kernel that no longer exists", key)
		}
	}
}
