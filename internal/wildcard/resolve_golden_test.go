package wildcard

import (
	"bytes"
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
	"repro/internal/netmodel"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/resolve_golden.json from this checkout's Resolve")

var siteField = regexp.MustCompile(`site=\d+`)

// traceDigest is the sha256 of the encoded trace with every site= value
// replaced by the order of its first appearance: a collected call site hashes
// program counters and file paths, which move with every recompile or
// checkout, while which events share a site does not.
func traceDigest(t testing.TB, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	order := map[string]int{}
	renumbered := siteField.ReplaceAllFunc(buf.Bytes(), func(m []byte) []byte {
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
// emits: `go test -run ResolveGolden ./internal/wildcard/ -update`.
func TestResolveGolden(t *testing.T) {
	inputs := map[string]func() *trace.Trace{
		"lu-16/S":            func() *trace.Trace { return kernelTrace(t, "lu", 16, apps.ClassS) },
		"lu-36/S":            func() *trace.Trace { return kernelTrace(t, "lu", 36, apps.ClassS) },
		"lu-64/A":            func() *trace.Trace { return kernelTrace(t, "lu", 64, apps.ClassA) },
		"star-6":             func() *trace.Trace { return collect(t, 6, starBody(6)) },
		"nonblocking-wild-4": func() *trace.Trace { return collect(t, 4, nonblockingWildBody(4)) },
	}
	got := map[string]string{}
	for name, input := range inputs {
		resolved, err := Resolve(input())
		if err != nil {
			t.Fatalf("%s: Resolve: %v", name, err)
		}
		got[name] = traceDigest(t, resolved)
	}

	golden := filepath.Join("testdata", "resolve_golden.json")
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
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden entry (run with -update after adding an input)", name)
		} else if g != w {
			t.Errorf("%s: resolved trace digest %s, golden %s", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry for an input that no longer exists", name)
		}
	}
}
