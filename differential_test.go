package repro

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// wildcardApps names the kernels whose receives use MPI_ANY_SOURCE — the
// paper's Section 4.4 nondeterminism case. Under the goroutine runtime,
// which in-flight message matches a wildcard receive depends on physical
// arrival order, so its per-rank clocks can differ by a fraction of a
// microsecond from run to run; the event engine resolves the same wildcards
// in virtual-time order and is exactly reproducible. Cross-engine clock
// comparisons for these kernels therefore use a small relative tolerance,
// while their traces stay byte-identical (wildcard sources are normalized
// to ANY) and every other kernel must match bit for bit on all engines.
var wildcardApps = map[string]bool{"lu": true}

// engineVariants are the two runtimes the differential suite compares: the
// discrete-event engine (the default and the baseline) and the
// goroutine-per-rank reference runtime, whose collectives rendezvous on the
// mutex+cond lockedColl.
var engineVariants = []struct {
	name string
	opts []mpi.Option
}{
	{"event", nil},
	{"goroutine", []mpi.Option{mpi.WithGoroutineRuntime()}},
}

// TestEventEngineMatchesGoroutineRuntime is the differential proof behind
// the discrete-event scheduler: every application kernel, run once per
// engine variant, must produce bit-identical per-rank virtual clocks, a
// byte-identical encoded trace and a matching mpiP profile. The virtual-time
// semantics are engine-independent by construction — collective rounds fold
// the same maxima, unexpected-message penalties depend on virtual arrival
// rather than physical schedule, and the event engine's tie-break only picks
// among orders the goroutine runtime could legally produce — so any
// divergence is a bug, not noise.
func TestEventEngineMatchesGoroutineRuntime(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			base, baseTrace, baseProf := runKernel(t, name, n, engineVariants[0].opts...)
			for _, variant := range engineVariants[1:] {
				res, resTrace, resProf := runKernel(t, name, n, variant.opts...)

				if !bytes.Equal(baseTrace, resTrace) {
					t.Errorf("encoded traces differ between event engine and %s runtime", variant.name)
				}
				if report := mpip.Diff(resProf, baseProf); !report.Match() {
					t.Errorf("mpiP profiles differ between event engine and %s runtime:\n%s", variant.name, report)
				}
				if wildcardApps[name] {
					// The goroutine runtime's wildcard matches race, so its
					// clocks sit anywhere in the legal-match-order envelope —
					// wider under the race detector, whose instrumentation
					// reshuffles interleavings. Bound the drift at 1%: real
					// cost-model divergences (a changed formula, a lost
					// contribution) show up orders of magnitude larger and in
					// the deterministic kernels too.
					const relTol = 1e-2
					for i := range res.PerRankUS {
						if d := math.Abs(base.PerRankUS[i]-res.PerRankUS[i]) / res.PerRankUS[i]; d > relTol {
							t.Errorf("rank %d clock: event %v, %s %v (rel diff %g)",
								i, base.PerRankUS[i], variant.name, res.PerRankUS[i], d)
						}
					}
					continue
				}
				if base.ElapsedUS != res.ElapsedUS {
					t.Errorf("ElapsedUS: event %v, %s %v", base.ElapsedUS, variant.name, res.ElapsedUS)
				}
				for i := range res.PerRankUS {
					if base.PerRankUS[i] != res.PerRankUS[i] {
						t.Errorf("rank %d clock: event %v, %s %v",
							i, base.PerRankUS[i], variant.name, res.PerRankUS[i])
					}
				}
			}
		})
	}
}

// TestRunToRunDeterminism re-runs every kernel on the default (event)
// engine and demands bit-identical clocks and traces. Unlike the goroutine
// runtime, the event engine is deterministic even for the wildcard kernels:
// matching follows virtual-time order with a fixed tie-break, so no kernel
// is excluded here.
func TestRunToRunDeterminism(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			t.Parallel()
			first, firstTrace, firstProf := runKernel(t, name, n)
			second, secondTrace, secondProf := runKernel(t, name, n)
			if report := mpip.Diff(firstProf, secondProf); !report.Match() {
				t.Errorf("mpiP profiles differ between runs:\n%s", report)
			}
			for i := range first.PerRankUS {
				if first.PerRankUS[i] != second.PerRankUS[i] {
					t.Errorf("rank %d clock differs between runs: %v vs %v",
						i, first.PerRankUS[i], second.PerRankUS[i])
				}
			}
			if !bytes.Equal(firstTrace, secondTrace) {
				t.Error("encoded traces differ between runs")
			}
		})
	}
}

// runKernel runs one kernel with a trace collector and an mpiP profile
// attached and returns the result, the encoded trace bytes and the profile,
// so callers can compare runs at all three levels (clocks, trace, profile).
func runKernel(t *testing.T, name string, n int, opts ...mpi.Option) (*mpi.Result, []byte, *mpip.Profile) {
	t.Helper()
	app := apps.ByName(name)
	col := trace.NewCollector(n)
	prof := mpip.NewProfile()
	opts = append(opts, mpi.WithTracer(func(rank int) mpi.Tracer {
		return mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
	}))
	res, err := mpi.Run(n, netmodel.BlueGeneL(), app.Body(apps.NewConfig(n, apps.ClassS)), opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return res, buf.Bytes(), prof
}
