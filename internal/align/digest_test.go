package align

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// traceDigest is the sha256 of everything an aligned trace says: node
// structure, rank sets as they are packed, peers, and the exact bits of
// every histogram field — the encoded form rounds sums to nine digits and
// so hides a last-bit difference. Call sites hash source paths, which move
// with the checkout, so each is replaced by the order of its first
// appearance.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d\n", tr.N)
	ids := make([]int, 0, len(tr.Comms))
	for id := range tr.Comms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "comm %d %v\n", id, tr.Comms[id])
	}
	sites := map[uint64]int{}
	for _, g := range tr.Groups {
		fmt.Fprintf(h, "group %s\n", g.Ranks)
		digestSeq(h, sites, g.Seq)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestSeq(h hash.Hash, sites map[uint64]int, seq []trace.Node) {
	for _, n := range seq {
		switch x := n.(type) {
		case *trace.Loop:
			fmt.Fprintf(h, "loop %d %d\n", x.Iters, len(x.Body))
			digestSeq(h, sites, x.Body)
		case *trace.RSD:
			site, ok := sites[x.Site]
			if !ok {
				site = len(sites)
				sites[x.Site] = site
			}
			fmt.Fprintf(h, "%v site=%d ranks=%s comm=%d/%d peer=%v%v wild=%v tag=%d size=%d counts=%v root=%d group=%v new=%d",
				x.Op, site, x.Ranks, x.CommID, x.CommSize, x.Peer, x.PeerVec, x.Wildcard,
				x.Tag, x.Size, x.Counts, x.Root, x.Group, x.NewCommID)
			digestHistogram(h, x.ComputeStats())
			digestHistogram(h, x.FirstCompute)
			fmt.Fprintln(h)
		}
	}
}

func digestHistogram(h hash.Hash, s *stats.Histogram) {
	if s == nil || s.Empty() {
		fmt.Fprint(h, " h0")
		return
	}
	fmt.Fprintf(h, " h%d/%x/%x/%x", s.Count, math.Float64bits(s.Sum), math.Float64bits(s.Min), math.Float64bits(s.Max))
	for i, c := range s.Bins {
		if c != 0 {
			fmt.Fprintf(h, ",%d=%d", i, c)
		}
	}
}

// alignInput collects a kernel's trace and takes it as far as the pipeline
// does before Algorithm 1: wildcard receives resolved.
func alignInput(t testing.TB, name string, n int, class apps.Class) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	body := apps.ByName(name).Body(apps.NewConfig(n, class))
	if _, err := mpi.Run(n, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr := col.Trace()
	if wildcard.Present(tr) {
		resolved, err := wildcard.Resolve(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr = resolved
	}
	return tr
}

// TestAlignRunToRunBitEqual aligns one trace twenty times: every run must
// give the first one's digest. The merged collective's compute sample is a
// floating-point mean over the members; taken in map-iteration order it
// differed in the last bit of Compute.Sum in 14 of 20 runs on halo2d at 36
// ranks.
func TestAlignRunToRunBitEqual(t *testing.T) {
	for _, k := range []struct {
		app string
		n   int
	}{{"halo2d", 36}, {"sweep3d", 16}} {
		tr := alignInput(t, k.app, k.n, apps.ClassS)
		var first string
		for run := 0; run < 20; run++ {
			aligned, err := Align(tr)
			if err != nil {
				t.Fatalf("%s: %v", k.app, err)
			}
			d := traceDigest(aligned)
			if run == 0 {
				first = d
			} else if d != first {
				t.Fatalf("%s@%d: run %d digests %s, run 0 %s", k.app, k.n, run, d, first)
			}
		}
	}
}
