package trace_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// traceDiff is the codec's notion of equality: it returns "" when a and b are
// the same trace and otherwise names the first difference. It compares the
// world size and communicators, each group's rank set, node by node every
// exported RSD field (rsdFields), and last the benchmark generated from each
// trace in coNCePTuaL, C and Go, errors included.
func traceDiff(a, b *trace.Trace) string {
	if a.N != b.N {
		return fmt.Sprintf("nprocs %d, %d", a.N, b.N)
	}
	if !maps.EqualFunc(a.Comms, b.Comms, slices.Equal[[]int]) {
		return fmt.Sprintf("comms %v, %v", a.Comms, b.Comms)
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Sprintf("%d groups, %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if ra, rb := a.Groups[i].Ranks, b.Groups[i].Ranks; !ra.Identical(rb) {
			return fmt.Sprintf("group %d ranks %s, %s", i, ra, rb)
		}
		if d := seqDiff(a.Groups[i].Seq, b.Groups[i].Seq); d != "" {
			return fmt.Sprintf("group %d: %s", i, d)
		}
	}
	pa, pb := core.NewPipeline(a, nil), core.NewPipeline(b, nil)
	for _, lang := range []string{"conceptual", "c", "go"} {
		sa, ea := pa.Render(lang)
		sb, eb := pb.Render(lang)
		if sa != sb || fmt.Sprint(ea) != fmt.Sprint(eb) {
			return fmt.Sprintf("%s renders differ (errors %v, %v)", lang, ea, eb)
		}
	}
	return ""
}

func seqDiff(a, b []trace.Node) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d nodes, %d", len(a), len(b))
	}
	for i := range a {
		switch x := a[i].(type) {
		case *trace.Loop:
			y, ok := b[i].(*trace.Loop)
			if !ok || x.Iters != y.Iters {
				return fmt.Sprintf("node %d: %v, %v", i, a[i], b[i])
			}
			if d := seqDiff(x.Body, y.Body); d != "" {
				return fmt.Sprintf("loop %d: %s", i, d)
			}
		case *trace.RSD:
			y, ok := b[i].(*trace.RSD)
			if !ok {
				return fmt.Sprintf("node %d: %v, %v", i, a[i], b[i])
			}
			for _, f := range rsdFields(x, y) {
				if !f.same {
					return fmt.Sprintf("node %d (%v): %s differs; compute %s, %s; first %s, %s", i, x, f.name,
						poolText(x.ComputeStats()), poolText(y.ComputeStats()), poolText(x.FirstCompute), poolText(y.FirstCompute))
				}
			}
		default:
			return fmt.Sprintf("node %d: unknown type %T", i, a[i])
		}
	}
	return ""
}

// rsdFields compares x and y field by field, one entry per exported RSD field.
func rsdFields(x, y *trace.RSD) []struct {
	name string
	same bool
} {
	return []struct {
		name string
		same bool
	}{
		{"op", x.Op == y.Op},
		{"site", x.Site == y.Site},
		{"ranks", x.Ranks.Identical(y.Ranks)},
		{"comm", x.CommID == y.CommID},
		{"csize", x.CommSize == y.CommSize},
		{"peer", x.Peer == y.Peer},
		{"pvec", slices.Equal(x.PeerVec, y.PeerVec)},
		{"wildcard", x.Wildcard == y.Wildcard},
		{"tag", x.Tag == y.Tag},
		{"size", x.Size == y.Size},
		{"counts", slices.Equal(x.Counts, y.Counts)},
		{"root", x.Root == y.Root},
		{"group", slices.Equal(x.Group, y.Group)},
		{"newcomm", x.NewCommID == y.NewCommID},
		{"compute", samePool(x.ComputeStats(), y.ComputeStats())},
		{"first", samePool(x.FirstCompute, y.FirstCompute)},
	}
}

// samePool compares two compute pools by count, bins and the bit patterns of
// sum, min and max. An absent pool and an empty one are the same.
func samePool(a, b *stats.Histogram) bool {
	if a == nil || a.Empty() || b == nil || b.Empty() {
		return (a == nil || a.Empty()) && (b == nil || b.Empty())
	}
	if a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) ||
		math.Float64bits(a.Min) != math.Float64bits(b.Min) || math.Float64bits(a.Max) != math.Float64bits(b.Max) {
		return false
	}
	for i := range stats.NumBins {
		if a.Bin(i) != b.Bin(i) {
			return false
		}
	}
	return true
}

func poolText(h *stats.Histogram) string {
	if h == nil || h.Empty() {
		return "-"
	}
	return string(h.Append(nil))
}

// splitRing is the root package's splitRingBody(50), the engine golden's one
// kernel on communicators that are not identities: the world splits by
// parity, each half ranked in descending world order, then rings on its half.
func splitRing(r *mpi.Rank) {
	sub := r.CommSplit(r.World(), r.Rank()%2, -r.Rank())
	me, _ := sub.CommRank(r.Rank())
	sz := sub.Size()
	for i := 0; i < 50; i++ {
		r.Compute(5)
		rq := r.Irecv(sub, (me+sz-1)%sz, 0, 1024)
		sq := r.Isend(sub, (me+1)%sz, 0, 1024)
		r.Waitall(rq, sq)
	}
	r.Allgatherv(sub, 8*(me+1))
}

// TestCodecIsLossless decodes the encoding of every kernel the engine golden
// runs (testdata/engine_golden.json at the repository root: every app at 16
// ranks or the largest valid count below, bt at 64, sweep3d at 36, every app
// at 64 with bt at 49, lu at 36, and the split-communicator ring at 16) and
// requires the trace that was encoded back.
func TestCodecIsLossless(t *testing.T) {
	if got, want := len(rsdFields(&trace.RSD{}, &trace.RSD{})), exportedFields(reflect.TypeFor[trace.RSD]()); got != want {
		t.Fatalf("rsdFields compares %d fields, RSD exports %d", got, want)
	}
	model := netmodel.BlueGeneL()
	largest := func(name string, n int) int {
		for !apps.ByName(name).ValidRanks(n) {
			n--
		}
		return n
	}
	type kernel struct {
		name string
		n    int
	}
	var ks []kernel
	for _, name := range apps.Names() {
		ks = append(ks, kernel{name, largest(name, 16)})
	}
	ks = append(ks, kernel{"bt", 64}, kernel{"sweep3d", 36})
	for _, name := range apps.Names() {
		n := largest(name, 64)
		if name == "bt" {
			n = largest(name, n-1)
		}
		ks = append(ks, kernel{name, n})
	}
	ks = append(ks, kernel{"lu", 36}, kernel{"split", 16})
	for _, k := range ks {
		t.Run(fmt.Sprintf("%s-%d", k.name, k.n), func(t *testing.T) {
			t.Parallel()
			var tr *trace.Trace
			if k.name == "split" {
				col := trace.NewCollector(k.n)
				if _, err := mpi.Run(k.n, model, splitRing, mpi.WithTracer(col.TracerFor)); err != nil {
					t.Fatal(err)
				}
				tr = col.Trace()
			} else {
				run, err := harness.TraceApp(k.name, apps.NewConfig(k.n, apps.ClassS), model)
				if err != nil {
					t.Fatal(err)
				}
				tr = run.Trace
			}
			var text bytes.Buffer
			if err := trace.Encode(&text, tr); err != nil {
				t.Fatal(err)
			}
			back, err := trace.Decode(&text)
			if err != nil {
				t.Fatal(err)
			}
			if d := traceDiff(tr, back); d != "" {
				t.Error(d)
			}
		})
	}
}

func exportedFields(typ reflect.Type) int {
	n := 0
	for _, f := range reflect.VisibleFields(typ) {
		if f.IsExported() {
			n++
		}
	}
	return n
}
