package repro

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// replayFunc is the signature replay.Replay and replay.ReplayReference share.
type replayFunc func(*trace.Trace, *netmodel.Model, ...mpi.Option) (*mpi.Result, error)

// replayModes are the three rank representations the replay differential
// suite compares: the stackless cursor (replay.Replay, the baseline here),
// the reference coroutine body on the event engine, and the same body on the
// goroutine runtime. All three must re-trace byte-identically; clocks must
// match exactly except for the wildcard kernels' goroutine leg, which races
// its ANY-source matches (same envelope as the engine differential).
var replayModes = []struct {
	name string
	run  replayFunc
	opts []mpi.Option
}{
	{"cursor", replay.Replay, nil},
	{"coroutine-event", replay.ReplayReference, nil},
	{"coroutine-goroutine", replay.ReplayReference, []mpi.Option{mpi.WithGoroutineRuntime()}},
}

// TestReplayRepresentationsBitIdentical is the differential proof behind the
// stackless executor: each kernel is traced once, then the trace is replayed
// under every rank representation. The cursor executor mirrors the coroutine
// replayer statement for statement and parks where the coroutine would block,
// so any divergence in re-trace bytes or per-rank clocks is a transcription
// bug in one of the representations, not noise.
func TestReplayRepresentationsBitIdentical(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			_, traceBytes, _ := runKernel(t, name, n)
			tr, err := trace.Decode(bytes.NewReader(traceBytes))
			if err != nil {
				t.Fatalf("decode trace: %v", err)
			}
			base, baseTrace := replayKernel(t, tr, replayModes[0].run, replayModes[0].opts...)
			for _, m := range replayModes[1:] {
				res, resTrace := replayKernel(t, tr, m.run, m.opts...)
				if !bytes.Equal(baseTrace, resTrace) {
					t.Errorf("re-traces differ between cursor and %s replay", m.name)
				}
				if wildcardApps[name] && len(m.opts) > 0 {
					const relTol = 1e-2
					for i := range res.PerRankUS {
						if d := math.Abs(base.PerRankUS[i]-res.PerRankUS[i]) / res.PerRankUS[i]; d > relTol {
							t.Errorf("rank %d clock: cursor %v, %s %v (rel diff %g)",
								i, base.PerRankUS[i], m.name, res.PerRankUS[i], d)
						}
					}
					continue
				}
				for i := range res.PerRankUS {
					if base.PerRankUS[i] != res.PerRankUS[i] {
						t.Errorf("rank %d clock: cursor %v, %s %v",
							i, base.PerRankUS[i], m.name, res.PerRankUS[i])
					}
				}
			}
		})
	}
}

// replayKernel replays tr under the given representation with a fresh
// collector attached and returns the result and the encoded re-trace.
func replayKernel(t *testing.T, tr *trace.Trace, run replayFunc, opts ...mpi.Option) (*mpi.Result, []byte) {
	t.Helper()
	col := trace.NewCollector(tr.N)
	opts = append(opts, mpi.WithTracer(col.TracerFor))
	res, err := run(tr, netmodel.BlueGeneL(), opts...)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("encode re-trace: %v", err)
	}
	return res, buf.Bytes()
}

// TestPooledWorldDeterminism pins the Engine's reset contract: one shared
// pool serves every kernel twice (the second run is always a warm reuse of
// the world the first released), and both pooled runs must be bit-identical
// to a fresh-world run — same per-rank clocks, same encoded trace. A single
// field the reset forgets to scrub shows up here as cross-kernel
// contamination.
func TestPooledWorldDeterminism(t *testing.T) {
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			fresh, freshTrace, _ := runKernel(t, name, n)
			for pass := 1; pass <= 2; pass++ {
				pooled, pooledTrace, _ := runKernel(t, name, n, mpi.WithEngine(eng))
				if !bytes.Equal(freshTrace, pooledTrace) {
					t.Errorf("pooled pass %d: trace differs from fresh world", pass)
				}
				for i := range fresh.PerRankUS {
					if fresh.PerRankUS[i] != pooled.PerRankUS[i] {
						t.Errorf("pooled pass %d: rank %d clock %v, fresh %v",
							pass, i, pooled.PerRankUS[i], fresh.PerRankUS[i])
					}
				}
			}
		})
	}
}

// TestPooledReplayDeterminism runs the same contract for the stackless path:
// replaying a trace through a pooled engine (cursor ranks on a reused world)
// must be bit-identical to a cold stackless replay.
func TestPooledReplayDeterminism(t *testing.T) {
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, name := range []string{"bt", "lu", "halo2d"} {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			_, traceBytes, _ := runKernel(t, name, n)
			tr, err := trace.Decode(bytes.NewReader(traceBytes))
			if err != nil {
				t.Fatalf("decode trace: %v", err)
			}
			cold, coldTrace := replayKernel(t, tr, replay.Replay)
			for pass := 1; pass <= 2; pass++ {
				warm, warmTrace := replayKernel(t, tr, replay.Replay, mpi.WithEngine(eng))
				if !bytes.Equal(coldTrace, warmTrace) {
					t.Errorf("pooled pass %d: re-trace differs from cold replay", pass)
				}
				for i := range warm.PerRankUS {
					if cold.PerRankUS[i] != warm.PerRankUS[i] {
						t.Errorf("pooled pass %d: rank %d clock %v, cold %v",
							pass, i, warm.PerRankUS[i], cold.PerRankUS[i])
					}
				}
			}
		})
	}
}
