package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/critpath"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// The tests in this file hold the production paths to what the deleted
// reference paths — the goroutine-per-rank runtime and the coroutine replayer,
// on the event engine and on the goroutine runtime — produced for every kernel
// at 16 ranks (or the largest valid count below). Clocks and traces come from
// that kernel's testdata/engine_golden.json entry; what the engine golden does
// not digest at 16 ranks (the mpiP profile, the replay's re-trace, the
// profiled replay's dependency graph and its critical-path analysis) comes
// from testdata/reference_golden.json. Both were recorded while the
// references ran beside the production paths and reproduced every digest
// (LU's clocks under the goroutine runtime excepted: its wildcard matches
// raced there, landing within 1 % of the event engine's). After a deliberate
// cost-model, trace-format or profiler change:
// `go test -run 'EngineGoldenDigests|GoroutineRuntime|Representations' -update .`
// and review the diff.

// loadEngineGolden decodes testdata/engine_golden.json.
func loadEngineGolden(t *testing.T) map[string]engineDigests {
	t.Helper()
	golden := filepath.Join("testdata", "engine_golden.json")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	var want map[string]engineDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	return want
}

// referenceGolden loads testdata/reference_golden.json (kernel → field →
// digest) and returns the calling test's check: it compares a digest with the
// golden's, or under -update records it, the file being rewritten when the
// test ends with the other tests' fields kept.
func referenceGolden(t *testing.T) func(t *testing.T, key, field, got string) {
	t.Helper()
	path := filepath.Join("testdata", "reference_golden.json")
	golden := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &golden)
	}
	if err != nil && !*updateGolden {
		t.Fatalf("%s (run with -update to create): %v", path, err)
	}
	var mu sync.Mutex
	if *updateGolden {
		// Runs once every parallel subtest has finished.
		t.Cleanup(func() {
			data, err := json.MarshalIndent(golden, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	return func(t *testing.T, key, field, got string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if *updateGolden {
			if golden[key] == nil {
				golden[key] = map[string]string{}
			}
			golden[key][field] = got
			return
		}
		want, ok := golden[key][field]
		if !ok {
			t.Errorf("no golden %s entry (run with -update after adding a kernel)", field)
		} else if got != want {
			t.Errorf("%s digest %s, golden %s", field, got, want)
		}
	}
}

// forKernels16 runs f as a parallel subtest "<name>-<n>" for every kernel at
// 16 ranks, or the largest valid count below.
func forKernels16(t *testing.T, f func(t *testing.T, key, name string, n int)) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		key := fmt.Sprintf("%s-%d", name, n)
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			f(t, key, name, n)
		})
	}
}

// traceOf decodes an encoded trace.
func traceOf(t *testing.T, encoded []byte) *trace.Trace {
	t.Helper()
	tr, err := trace.Decode(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	return tr
}

// TestEventEngineMatchesGoroutineRuntime holds every kernel's application run
// to the goroutine runtime's: bit-identical per-rank clocks, a byte-identical
// encoded trace and the same mpiP profile (per operation, the call count and
// bytes).
func TestEventEngineMatchesGoroutineRuntime(t *testing.T) {
	engine := loadEngineGolden(t)
	check := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		res, traceBytes, prof := runKernel(t, name, n)
		w := engine[key]
		if got := clockDigest(res.PerRankUS); got != w.AppClocks {
			t.Errorf("clock digest %s, golden %s", got, w.AppClocks)
		}
		if got := traceDigest(traceBytes); got != w.Trace {
			t.Errorf("encoded trace digest %s, golden %s", got, w.Trace)
		}
		check(t, key, "profile", textDigest(prof.String()))
	})
}

// TestReplayRepresentationsBitIdentical holds the stackless cursor replay of
// every kernel's trace to the coroutine replayer's, on both runtimes:
// bit-identical per-rank clocks and a byte-identical encoded re-trace.
func TestReplayRepresentationsBitIdentical(t *testing.T) {
	engine := loadEngineGolden(t)
	check := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		_, traceBytes, _ := runKernel(t, name, n)
		res, retrace := replayKernel(t, traceOf(t, traceBytes))
		if got, want := clockDigest(res.PerRankUS), engine[key].ReplayClocks; got != want {
			t.Errorf("clock digest %s, golden %s", got, want)
		}
		check(t, key, "retrace", traceDigest(retrace))
	})
}

// TestCritPathRepresentationsIdentical replays every kernel's trace on
// stackless cursors with the profiler attached. The cursors record their
// dependency graph through other wake paths than the coroutine replayer did,
// and must reproduce its graph record for record, its final clocks and
// therefore its critical-path profile.
func TestCritPathRepresentationsIdentical(t *testing.T) {
	engine := loadEngineGolden(t)
	check := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		_, traceBytes, _ := runKernel(t, name, n)
		g := mpi.NewDepGraph()
		if _, err := replay.Replay(traceOf(t, traceBytes), netmodel.BlueGeneL(), mpi.WithCausalProfile(g)); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if got, want := clockDigest(g.FinalUS), engine[key].ReplayClocks; got != want {
			t.Errorf("final clock digest %s, golden %s", got, want)
		}
		g = siteRenumbered(g)
		check(t, key, "deps", textDigest(fmt.Sprintf("%+v", g.Records)))
		check(t, key, "critpath", textDigest(fmt.Sprintf("%+v", *critpath.Analyze(g))))
	})
}

// siteRenumbered returns a copy of g whose call-site hashes are replaced by
// the order of their first appearance, rank by rank, for the reason
// traceDigest renumbers them.
func siteRenumbered(g *mpi.DepGraph) *mpi.DepGraph {
	c := *g
	c.Records = make([][]mpi.DepRecord, len(g.Records))
	order := map[uint64]uint64{}
	for r, recs := range g.Records {
		c.Records[r] = slices.Clone(recs)
		for i := range c.Records[r] {
			site := c.Records[r][i].Site
			id, ok := order[site]
			if !ok {
				id = uint64(len(order))
				order[site] = id
			}
			c.Records[r][i].Site = id
		}
	}
	return &c
}
