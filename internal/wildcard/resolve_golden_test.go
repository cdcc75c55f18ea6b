package wildcard

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/golden"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// traceDigest is golden.TraceDigest of tr's encoding.
func traceDigest(t testing.TB, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return golden.TraceDigest(buf.Bytes())
}

// kernelTrace collects a bundled application on the BlueGene/L model.
func kernelTrace(t testing.TB, name string, n int, class apps.Class) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	body := apps.ByName(name).Body(apps.NewConfig(n, class))
	if _, err := mpi.Run(n, netmodel.BlueGeneL(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return col.Trace()
}

// starBody: rank 0 posts n-1 blocking wildcard receives, every other rank
// sends it one message (internal/mpnet's star-6 golden net).
func starBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 32)
			}
		} else {
			r.Send(r.World(), 0, 0, 32)
		}
	}
}

// nonblockingWildBody: the star with the wildcards posted as Irecvs and
// demanded by one Waitall (internal/mpnet's nonblocking-wild-4 golden net).
func nonblockingWildBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		if r.Rank() == 0 {
			var reqs []*mpi.Request
			for i := 1; i < n; i++ {
				reqs = append(reqs, r.Irecv(c, mpi.AnySource, 3, 16))
			}
			r.Waitall(reqs...)
		} else {
			r.Send(c, 0, 3, 16)
		}
	}
}

// TestResolveGolden pins Algorithm 2's output by bits: per input the digest
// of the encoded resolved trace. After a deliberate change to what Resolve
// emits: `go test -run ResolveGolden ./internal/wildcard/ -update -v`.
func TestResolveGolden(t *testing.T) {
	want := golden.LoadMap(t, filepath.Join("testdata", "resolve_golden.json"))
	inputs := map[string]func() *trace.Trace{
		"lu-16/S":            func() *trace.Trace { return kernelTrace(t, "lu", 16, apps.ClassS) },
		"lu-36/S":            func() *trace.Trace { return kernelTrace(t, "lu", 36, apps.ClassS) },
		"lu-64/A":            func() *trace.Trace { return kernelTrace(t, "lu", 64, apps.ClassA) },
		"star-6":             func() *trace.Trace { return collect(t, 6, starBody(6)) },
		"nonblocking-wild-4": func() *trace.Trace { return collect(t, 4, nonblockingWildBody(4)) },
	}
	for name, input := range inputs {
		resolved, err := Resolve(input())
		if err != nil {
			t.Fatalf("%s: Resolve: %v", name, err)
		}
		want.Check(t, name, traceDigest(t, resolved))
	}
}
