package repro

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// engineDigests is one kernel's entry in testdata/engine_golden.json: what
// the production chain — event engine, cursor replay, cursor execution of
// the generated program — produced when the file was last written.
type engineDigests struct {
	// AppClocks digests PerRankUS of the traced application run.
	AppClocks string `json:"app_clocks"`
	// Trace digests the encoded trace, call sites renumbered.
	Trace string `json:"trace"`
	// ReplayClocks digests PerRankUS of replay.Replay on the decoded trace.
	ReplayClocks string `json:"replay_clocks"`
	// GeneratedClocks digests PerTaskUS of conceptual.Execute on the program
	// core.Generate builds from the decoded trace.
	GeneratedClocks string `json:"generated_clocks"`
	// SourceConceptual, SourceC and SourceGo digest the generated benchmark's
	// text in the three executable target languages.
	SourceConceptual string `json:"source_conceptual"`
	SourceC          string `json:"source_c"`
	SourceGo         string `json:"source_go"`
	// Profile digests the mpiP profile of the traced application run (per
	// operation, the call count and bytes); Retrace digests the encoded trace
	// of the cursor replay, call sites renumbered. Only the widened entries
	// carry them, so the entries written before them stay as they were.
	Profile string `json:"profile,omitempty"`
	Retrace string `json:"retrace,omitempty"`
}

// goldenKernel is one run of the golden chain: an application body on n
// ranks, class S. Wide entries also record Profile and Retrace.
type goldenKernel struct {
	name string
	n    int
	body func(*mpi.Rank)
	wide bool
}

func (k goldenKernel) key() string { return fmt.Sprintf("%s-%d", k.name, k.n) }

// goldenKernels lists the golden chain's runs: every kernel at 16 ranks (or
// the largest valid count below), bt at 64 and sweep3d at 36 for the
// sources' sake (deeper loop nests, longer enumerations), and the widened
// set: every kernel at 64 ranks (bt, whose 64-rank entry predates the
// widening, at 49), lu at 36, and splitRingBody at 16, the one traced kernel
// whose communicators are not identities.
func goldenKernels() []goldenKernel {
	app := func(name string, n int, wide bool) goldenKernel {
		return goldenKernel{name, n, apps.ByName(name).Body(apps.NewConfig(n, apps.ClassS)), wide}
	}
	largest := func(name string, n int) int {
		for !apps.ByName(name).ValidRanks(n) {
			n--
		}
		return n
	}
	var ks []goldenKernel
	for _, name := range apps.Names() {
		ks = append(ks, app(name, largest(name, 16), false))
	}
	ks = append(ks, app("bt", 64, false), app("sweep3d", 36, false))
	for _, name := range apps.Names() {
		n := largest(name, 64)
		if name == "bt" {
			n = largest(name, n-1)
		}
		ks = append(ks, app(name, n, true))
	}
	return append(ks, app("lu", 36, true), goldenKernel{"split", 16, splitRingBody(50), true})
}

// TestEngineGoldenDigests compares the production chain against checked-in
// digests for every kernel of goldenKernels, class S, on the BlueGene/L
// model, one subtest per kernel. It needs no second implementation and fails
// on a one-ulp clock change anywhere in the chain. LU is included: the event
// engine resolves wildcards deterministically. The widened entries were
// recorded while the goroutine-per-rank runtime, a coroutine replayer and a
// tree-walking interpreter still ran beside the chain and reproduced every
// digest (LU's clocks under the goroutine runtime excepted: its wildcard
// matches raced). After a deliberate cost-model, trace-format or generator
// change: `go test -run EngineGoldenDigests . -update -v` and review the rows.
func TestEngineGoldenDigests(t *testing.T) {
	model := netmodel.BlueGeneL()
	digests := golden.LoadMap(t, filepath.Join("testdata", "engine_golden.json"))
	for _, k := range goldenKernels() {
		t.Run(k.key(), func(t *testing.T) {
			t.Parallel()
			res, traceBytes, prof := runBody(t, k.key(), k.n, k.body)
			// Replay and generation each get their own decode, as the CLI
			// chain (tracegen | benchgen) would hand them.
			decode := func() *trace.Trace {
				tr, err := trace.Decode(bytes.NewReader(traceBytes))
				if err != nil {
					t.Fatalf("decode trace: %v", err)
				}
				return tr
			}
			rep, retrace := replayKernel(t, decode())
			prog, err := core.Generate(decode(), nil)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			exe, err := conceptual.Execute(prog, k.n, model)
			if err != nil {
				t.Fatalf("execute generated program: %v", err)
			}
			gosrc, err := core.GenerateGo(decode(), nil)
			if err != nil {
				t.Fatalf("generate Go: %v", err)
			}
			g := engineDigests{
				AppClocks:        golden.ClockDigest(res.PerRankUS),
				Trace:            golden.TraceDigest(traceBytes),
				ReplayClocks:     golden.ClockDigest(rep.PerRankUS),
				GeneratedClocks:  golden.ClockDigest(exe.PerTaskUS),
				SourceConceptual: golden.TextDigest(conceptual.Print(prog)),
				SourceC:          golden.TextDigest(conceptual.GenerateC(prog)),
				SourceGo:         golden.TextDigest(gosrc),
			}
			if k.wide {
				g.Profile = golden.TextDigest(prof.String())
				g.Retrace = golden.TraceDigest(retrace)
			}
			digests.Check(t, k.key(), g)

			// The digest must be sensitive to the smallest possible clock
			// change.
			last := len(res.PerRankUS) - 1
			res.PerRankUS[last] = math.Nextafter(res.PerRankUS[last], math.Inf(1))
			if golden.ClockDigest(res.PerRankUS) == g.AppClocks {
				t.Error("clock digest unchanged by a one-ulp clock change")
			}
		})
	}
}
