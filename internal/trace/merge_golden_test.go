package trace

import (
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/golden"
	"repro/internal/mpi"
)

// mergeDigest is golden.TraceDigest of tr's encoding.
func mergeDigest(t *testing.T, tr *Trace) string {
	return golden.TraceDigest([]byte(encodeTrace(t, tr)))
}

// splitKernel is a kernel none of internal/apps provides: two CommSplits
// give every rank an (even/odd, block-of-eight) pair of sub-communicators,
// so the merge classifies 32 ranks into 8 classes of 4 and unifies ring
// peers through sub-communicator ranks rather than world ranks.
func splitKernel(r *mpi.Rank) {
	parity := r.CommSplit(r.World(), r.Rank()%2, r.Rank())
	block := r.CommSplit(r.World(), r.Rank()/8, r.Rank())
	me, _ := parity.CommRank(r.Rank())
	for it := 0; it < 6; it++ {
		r.Compute(40 + 3*float64(r.Rank()) + float64(it))
		rq := r.Irecv(parity, (me+parity.Size()-1)%parity.Size(), 5, 256)
		sq := r.Isend(parity, (me+1)%parity.Size(), 5, 256)
		r.Waitall(rq, sq)
		r.Compute(10 + float64(r.Rank()%8))
		r.Allreduce(block, 64)
	}
	r.Bcast(parity, 0, 1024)
	r.Barrier(r.World())
}

// TestMergeGolden pins the inter-node merge by bytes: the digest of
// Encode(MergeClasses(...)) for every merge scenario and for the
// collected streams of three kernels at the largest scales the suites run,
// plus splitKernel. testdata/merge_golden.json was recorded by the parallel
// tree merge this file's parent commit still had, at 1, 2 and 8 workers
// (required equal before writing); whatever the merge becomes has to
// reproduce it unchanged. It needs no second implementation. Only a
// deliberate change to what the merge produces, or to the trace format, may
// regenerate it: `go test -run MergeGolden ./internal/trace/ -update -v`.
func TestMergeGolden(t *testing.T) {
	want := golden.LoadMap(t, filepath.Join("testdata", "merge_golden.json"))
	for _, sc := range mergeScenarios() {
		want.Check(t, sc.name, mergeDigest(t, MergeClasses(sc.n, sc.comms(sc.n), rankClasses(sc.build(sc.n)))))
	}
	for _, k := range []struct {
		app string
		n   int
	}{{"bt", 64}, {"lu", 36}, {"sweep3d", 64}} {
		body := apps.ByName(k.app).Body(apps.NewConfig(k.n, apps.ClassS))
		want.Check(t, k.app+"-"+strconv.Itoa(k.n), mergeDigest(t, collectTrace(t, k.n, body)))
	}
	want.Check(t, "split-32", mergeDigest(t, collectTrace(t, 32, splitKernel)))
}
