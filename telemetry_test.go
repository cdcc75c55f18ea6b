package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTelemetryOnOffBitIdentical is the telemetry layer's non-interference
// proof: every application kernel runs once with telemetry disabled and once
// fully instrumented (collection enabled, a virtual-time timeline tracer
// attached), and the encoded traces, the per-rank virtual clocks and the
// mpiP profiles must agree bit for bit. Telemetry state is global, so the
// legs run serially (no t.Parallel).
// The instrumented leg runs through a pooled Engine, so the world-reuse
// counters and the per-Run setup histogram — which fire on the pool's
// acquire path — are also covered by the proof.
func TestTelemetryOnOffBitIdentical(t *testing.T) {
	defer telemetry.Disable()
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			telemetry.Disable()
			telemetry.Default.Reset()
			off, offTrace, offProf := runKernelProfiled(t, name, n, nil)

			telemetry.Enable()
			tl := telemetry.NewTimeline()
			on, onTrace, onProf := runKernelProfiled(t, name, n, mpi.TimelineTracer(tl), mpi.WithEngine(eng))
			telemetry.Disable()

			if !bytes.Equal(offTrace, onTrace) {
				t.Error("encoded traces differ between telemetry off and on")
			}
			if report := mpip.Diff(offProf, onProf); !report.Match() {
				t.Errorf("profiles differ between telemetry off and on:\n%s", report)
			}
			if tl.SpanCount() == 0 {
				t.Error("instrumented run produced no timeline spans")
			}
			for i := range off.PerRankUS {
				if on.PerRankUS[i] != off.PerRankUS[i] {
					t.Errorf("rank %d clock: off %v, on %v", i, off.PerRankUS[i], on.PerRankUS[i])
				}
			}
		})
	}
}

// runKernelProfiled is runKernel plus an mpiP profile and an optional extra
// per-rank tracer (the telemetry timeline adapter in the on-leg).
func runKernelProfiled(t *testing.T, name string, n int, extra func(int) mpi.Tracer, opts ...mpi.Option) (*mpi.Result, []byte, *mpip.Profile) {
	t.Helper()
	app := apps.ByName(name)
	col := trace.NewCollector(n)
	prof := mpip.NewProfile()
	tracers := func(rank int) mpi.Tracer {
		mt := mpi.MultiTracer{col.TracerFor(rank), prof.TracerFor(rank)}
		if extra != nil {
			mt = append(mt, extra(rank))
		}
		return mt
	}
	opts = append(opts, mpi.WithTracer(tracers))
	res, err := mpi.Run(n, netmodel.BlueGeneL(), app.Body(apps.NewConfig(n, apps.ClassS)),
		opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return res, buf.Bytes(), prof
}

// timelineBody is the fixed 64-rank workload behind the timeline golden: one
// round of neighbor exchange plus two collectives, small enough that the
// exported JSON stays reviewable while still covering every span kind the
// adapter emits (pt2pt, waits, collectives, Init/Finalize).
func timelineBody(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		w := r.World()
		r.Barrier(w)
		sreq := r.Isend(w, (r.Rank()+1)%n, 3, 256)
		rreq := r.Irecv(w, (r.Rank()+n-1)%n, 3, 256)
		r.Waitall(rreq, sreq)
		r.Allreduce(w, 64)
	}
}

// TestTimelineGolden64Ranks pins the Chrome trace-event export of a 64-rank
// run's virtual-time schedule byte for byte. The runtime's virtual clocks are
// deterministic and each rank's spans are appended in program order, so the
// export is reproducible; regenerate with `go test -run TimelineGolden
// -update` after an intentional format or cost-model change.
func TestTimelineGolden64Ranks(t *testing.T) {
	const n = 64
	tl := telemetry.NewTimeline()
	if _, err := mpi.Run(n, netmodel.BlueGeneL(), timelineBody(n),
		mpi.WithTracer(mpi.TimelineTracer(tl))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	// Structural validation first, so a mismatch report rides on a known-good
	// document: valid JSON, one track per rank, and per rank a virtual-time
	// begin (first span at its clock origin) and end (last span's close).
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	ranksSeen := map[int]bool{}
	first := map[int]string{}
	lastEnd := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("negative span time: %+v", ev)
		}
		ranksSeen[ev.TID] = true
		if _, ok := first[ev.TID]; !ok {
			first[ev.TID] = ev.Name
		}
		if end := ev.TS + ev.Dur; end > lastEnd[ev.TID] {
			lastEnd[ev.TID] = end
		}
	}
	if len(ranksSeen) != n {
		t.Fatalf("export covers %d ranks, want %d", len(ranksSeen), n)
	}
	for rank := 0; rank < n; rank++ {
		if first[rank] != "Init" {
			t.Errorf("rank %d first span = %q, want Init", rank, first[rank])
		}
		if lastEnd[rank] <= 0 {
			t.Errorf("rank %d never ends (last end %v)", rank, lastEnd[rank])
		}
	}

	golden := filepath.Join("testdata", "timeline_64rank.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline export differs from %s (len %d vs %d); run with -update after intentional changes",
			golden, buf.Len(), len(want))
	}
}

// TestTelemetryOverheadGuard is a coarse tripwire against the enabled-path
// cost regressing: the instrumented runtime (counters live, no tracer) must
// stay within 1.5x of the uninstrumented one on the BenchmarkRunWorld
// workload. The measured overhead is a few percent (BenchmarkRunWorld's
// telemetry/fast pairs); the generous bound keeps the guard out of
// CI-noise territory. Interleaved minimum-of-N measurement damps scheduler
// variance.
func TestTelemetryOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard meaningless under the race detector")
	}
	defer telemetry.Disable()
	const n = 64
	const rounds = 5
	measure := func() time.Duration {
		start := time.Now()
		if _, err := mpi.Run(n, netmodel.BlueGeneL(), runWorldBody(n)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	minOff, minOn := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		telemetry.Disable()
		if d := measure(); d < minOff {
			minOff = d
		}
		telemetry.Enable()
		if d := measure(); d < minOn {
			minOn = d
		}
	}
	telemetry.Disable()
	ratio := float64(minOn) / float64(minOff)
	t.Logf("telemetry off %v, on %v (ratio %.3f)", minOff, minOn, ratio)
	if ratio > 1.5 {
		t.Errorf("enabled telemetry costs %.2fx the uninstrumented runtime (bound 1.5x)", ratio)
	}
}
