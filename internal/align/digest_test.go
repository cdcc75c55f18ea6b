package align

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// traceLines renders everything an aligned trace says, a line per
// communicator, group and node: node structure, rank sets as they are
// packed, peers, and the exact bits of every histogram field — the encoded
// form rounds sums to nine digits and so hides a last-bit difference. Call
// sites hash source paths, which move with the checkout, so each is replaced
// by the order of its first appearance.
func traceLines(tr *trace.Trace) []string {
	lines := []string{fmt.Sprintf("n=%d", tr.N)}
	ids := make([]int, 0, len(tr.Comms))
	for id := range tr.Comms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		lines = append(lines, fmt.Sprintf("comm %d %v", id, tr.Comms[id]))
	}
	sites := map[uint64]int{}
	var walk func(seq []trace.Node)
	walk = func(seq []trace.Node) {
		for _, n := range seq {
			switch x := n.(type) {
			case *trace.Loop:
				lines = append(lines, fmt.Sprintf("loop %d %d", x.Iters, len(x.Body)))
				walk(x.Body)
			case *trace.RSD:
				site, ok := sites[x.Site]
				if !ok {
					site = len(sites)
					sites[x.Site] = site
				}
				lines = append(lines, fmt.Sprintf("%v site=%d ranks=%s comm=%d/%d peer=%v%v wild=%v tag=%d size=%d counts=%v root=%d group=%v new=%d%s%s",
					x.Op, site, x.Ranks, x.CommID, x.CommSize, x.Peer, x.PeerVec, x.Wildcard,
					x.Tag, x.Size, x.Counts, x.Root, x.Group, x.NewCommID,
					histogramBits(x.ComputeStats()), histogramBits(x.FirstCompute)))
			}
		}
	}
	for _, g := range tr.Groups {
		lines = append(lines, fmt.Sprintf("group %s", g.Ranks))
		walk(g.Seq)
	}
	return lines
}

func histogramBits(s *stats.Histogram) string {
	if s == nil || s.Empty() {
		return " h0"
	}
	bits := fmt.Sprintf(" h%d/%x/%x/%x", s.Count, math.Float64bits(s.Sum), math.Float64bits(s.Min), math.Float64bits(s.Max))
	for i, c := range s.Bins {
		if c != 0 {
			bits += fmt.Sprintf(",%d=%d", i, c)
		}
	}
	return bits
}

// traceDigest is the sha256 of traceLines.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	for _, line := range traceLines(tr) {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameTrace fails the test at the first line of traceLines on which got and
// want differ.
func sameTrace(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	g, w := traceLines(got), traceLines(want)
	for i := 0; i < len(g) || i < len(w); i++ {
		switch {
		case i >= len(g):
			t.Fatalf("%s: trace ends at line %d, want %q", label, i, w[i])
		case i >= len(w):
			t.Fatalf("%s: line %d is %q, want the trace to end", label, i, g[i])
		case g[i] != w[i]:
			t.Fatalf("%s: line %d\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// alignInput collects a kernel's trace and takes it as far as the pipeline
// does before Algorithm 1: wildcard receives resolved.
func alignInput(t testing.TB, name string, n int, class apps.Class) *trace.Trace {
	t.Helper()
	tr := traceKernel(t, name, n, class)
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
