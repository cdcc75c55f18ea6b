package repro

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/critpath"
	"repro/internal/golden"
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
// `go test -run 'EngineGoldenDigests|GoroutineRuntime|Representations' . -update -v`
// and review the rows.

// loadEngineGolden decodes testdata/engine_golden.json.
func loadEngineGolden(t *testing.T) map[string]engineDigests {
	t.Helper()
	var want map[string]engineDigests
	golden.Read(t, filepath.Join("testdata", "engine_golden.json"), &want)
	return want
}

// referenceGolden loads testdata/reference_golden.json (kernel → field →
// digest) for the calling test, which checks its own fields of every kernel.
func referenceGolden(t *testing.T) *golden.Map {
	return golden.LoadMap(t, filepath.Join("testdata", "reference_golden.json"))
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
	ref := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		res, traceBytes, prof := runKernel(t, name, n)
		w := engine[key]
		if got := golden.ClockDigest(res.PerRankUS); got != w.AppClocks {
			t.Errorf("clock digest %s, golden %s", got, w.AppClocks)
		}
		if got := golden.TraceDigest(traceBytes); got != w.Trace {
			t.Errorf("encoded trace digest %s, golden %s", got, w.Trace)
		}
		ref.CheckField(t, key, "profile", golden.TextDigest(prof.String()))
	})
}

// TestReplayRepresentationsBitIdentical holds the stackless cursor replay of
// every kernel's trace to the coroutine replayer's, on both runtimes:
// bit-identical per-rank clocks and a byte-identical encoded re-trace.
func TestReplayRepresentationsBitIdentical(t *testing.T) {
	engine := loadEngineGolden(t)
	ref := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		_, traceBytes, _ := runKernel(t, name, n)
		res, retrace := replayKernel(t, traceOf(t, traceBytes))
		if got, want := golden.ClockDigest(res.PerRankUS), engine[key].ReplayClocks; got != want {
			t.Errorf("clock digest %s, golden %s", got, want)
		}
		ref.CheckField(t, key, "retrace", golden.TraceDigest(retrace))
	})
}

// TestCritPathRepresentationsIdentical replays every kernel's trace on
// stackless cursors with the profiler attached. The cursors record their
// dependency graph through other wake paths than the coroutine replayer did,
// and must reproduce its graph record for record, its final clocks and
// therefore its critical-path profile.
func TestCritPathRepresentationsIdentical(t *testing.T) {
	engine := loadEngineGolden(t)
	ref := referenceGolden(t)
	forKernels16(t, func(t *testing.T, key, name string, n int) {
		_, traceBytes, _ := runKernel(t, name, n)
		g := mpi.NewDepGraph()
		if _, err := replay.Replay(traceOf(t, traceBytes), netmodel.BlueGeneL(), mpi.WithCausalProfile(g)); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if got, want := golden.ClockDigest(g.FinalUS), engine[key].ReplayClocks; got != want {
			t.Errorf("final clock digest %s, golden %s", got, want)
		}
		g = siteRenumbered(g)
		ref.CheckField(t, key, "deps", golden.TextDigest(fmt.Sprintf("%+v", g.Records)))
		ref.CheckField(t, key, "critpath", golden.TextDigest(fmt.Sprintf("%+v", *critpath.Analyze(g))))
	})
}

// siteRenumbered returns a copy of g whose call-site hashes are replaced by
// the order of their first appearance, rank by rank, for the reason
// golden.TraceDigest renumbers them.
func siteRenumbered(g *mpi.DepGraph) *mpi.DepGraph {
	c := *g
	c.Records = make([][]mpi.DepRecord, len(g.Records))
	order := golden.Numbering[uint64]{}
	for r, recs := range g.Records {
		c.Records[r] = slices.Clone(recs)
		for i := range c.Records[r] {
			c.Records[r][i].Site = uint64(order.Of(c.Records[r][i].Site))
		}
	}
	return &c
}
