package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/merge_golden.json")

var siteField = regexp.MustCompile(`site=\d+`)

// mergeDigest is the sha256 of the encoded trace with every site= value
// replaced by the order of its first appearance: a collected call site
// hashes program counters, which move with every recompile, while which
// events share a site does not.
func mergeDigest(t *testing.T, tr *Trace) string {
	t.Helper()
	order := map[string]int{}
	renumbered := siteField.ReplaceAllFunc([]byte(encodeTrace(t, tr)), func(m []byte) []byte {
		i, ok := order[string(m)]
		if !ok {
			i = len(order)
			order[string(m)] = i
		}
		return strconv.AppendInt([]byte("site="), int64(i), 10)
	})
	sum := sha256.Sum256(renumbered)
	return hex.EncodeToString(sum[:])
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
// Encode(MergeRankSeqsOwned(...)) for every merge scenario and for the
// collected streams of three kernels at the largest scales the suites run,
// plus splitKernel. testdata/merge_golden.json was recorded by the parallel
// tree merge this file's parent commit still had, at 1, 2 and 8 workers
// (required equal before writing); whatever the merge becomes has to
// reproduce it unchanged. It needs no second implementation. Only a
// deliberate change to what the merge produces, or to the trace format, may
// regenerate it: `go test -run MergeGolden ./internal/trace/ -update`.
func TestMergeGolden(t *testing.T) {
	got := map[string]string{}
	for _, sc := range mergeScenarios() {
		got[sc.name] = mergeDigest(t, MergeRankSeqsOwned(sc.n, sc.comms(sc.n), sc.build(sc.n)))
	}
	for _, k := range []struct {
		app string
		n   int
	}{{"bt", 64}, {"lu", 36}, {"sweep3d", 64}} {
		body := apps.ByName(k.app).Body(apps.NewConfig(k.n, apps.ClassS))
		got[k.app+"-"+strconv.Itoa(k.n)] = mergeDigest(t, collectTrace(t, k.n, body))
	}
	got["split-32"] = mergeDigest(t, collectTrace(t, 32, splitKernel))

	golden := filepath.Join("testdata", "merge_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden entry (run with -update after adding an input)", key)
		} else if g != w {
			t.Errorf("%s: merged trace digest %s, golden %s", key, g, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry for an input that no longer exists", key)
		}
	}
}
