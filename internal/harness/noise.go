package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// NoisePoint reports the Figure 6 timing error of one app under one
// platform-noise level.
type NoisePoint struct {
	App           string
	NoiseFraction float64
	ErrPct        float64
}

// NoiseSensitivity measures how generated-benchmark timing accuracy
// degrades with platform noise. The paper's 2.9% mean error was measured on
// a real (noisy) Blue Gene/L; our noise-free model yields errors well below
// that, and this sweep shows noise closing the gap: the original run and
// the generated benchmark see different noise instances (different event
// streams), so the comparison degrades the way two real runs of the same
// binary would.
func NoiseSensitivity(appNames []string, n int, class apps.Class, fractions []float64) ([]NoisePoint, error) {
	type job struct {
		frac float64
		name string
	}
	var jobs []job
	for _, frac := range fractions {
		for _, name := range appNames {
			if apps.ByName(name) == nil {
				return nil, fmt.Errorf("noise: unknown app %q", name)
			}
			jobs = append(jobs, job{frac, name})
		}
	}
	// Each (fraction, app) cell builds its own models (NoiseUS is a pure
	// function of seed/rank/event, so a fresh model with the same seed is the
	// same noise instance) and runs concurrently on the harness pool.
	points := make([]NoisePoint, len(jobs))
	err := forEachNamed(len(jobs), func(i int) string {
		return fmt.Sprintf("noise %s@%.3f", jobs[i].name, jobs[i].frac)
	}, func(i int) error {
		j := jobs[i]
		ranks := apps.ByName(j.name).RanksAtMost(n)
		model := netmodel.BlueGeneL()
		model.NoiseFraction = j.frac
		model.NoiseSeed = 1
		run, err := TraceApp(j.name, apps.NewConfig(ranks, class), model)
		if err != nil {
			return err
		}
		// The vendor's machine is the same platform but never the same
		// noise instance; use a different seed for the benchmark run.
		benchModel := netmodel.BlueGeneL()
		benchModel.NoiseFraction = j.frac
		benchModel.NoiseSeed = 2
		bench, err := GenerateAndRun(run.Trace, benchModel)
		if err != nil {
			return err
		}
		points[i] = NoisePoint{
			App:           j.name,
			NoiseFraction: j.frac,
			ErrPct:        stats.AbsPercentError(bench.ElapsedUS, run.ElapsedUS),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// NoiseTable renders the sweep grouped by noise level.
func NoiseTable(points []NoisePoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %10s %8s\n", "app", "noise %", "err %")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-8s %10.1f %8.2f\n", p.App, 100*p.NoiseFraction, p.ErrPct)
	}
	return sb.String()
}
