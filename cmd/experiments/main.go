// Command experiments regenerates the paper's evaluation: the Section 5.2
// correctness checks, the Figure 6 timing-accuracy comparison, the Figure 7
// what-if study, the Table 1 substitution demonstration, and the
// trace/code-size scaling measurements.
//
// Usage:
//
//	experiments -exp all [-class C] [-quick] [-parallel N] [-timeout D] [-critpath]
//	experiments -exp fig6
//	experiments -exp fig7
//	experiments -exp correctness
//	experiments -exp equivalence
//	experiments -exp table1
//	experiments -exp scaling
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/extrap"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all, correctness, noise, equivalence, verify, table1, fig6, fig7, scaling, extrap, overlap")
		className = flag.String("class", "C", "NPB problem class for fig6/fig7")
		quick     = flag.Bool("quick", false, "reduced configuration (small node counts, class W)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"number of experiment configurations to run concurrently (results are identical for any value)")
		timeout = flag.Duration("timeout", 0,
			"wall-clock deadline per simulated run (0 uses the runtime default)")
	)
	flag.BoolVar(&critFlag, "critpath", false,
		"in correctness, also diff original-vs-generated critical-path profiles")
	tcli := telemetry.NewCLI()
	flag.Parse()
	if err := tcli.Start(); err != nil {
		fatal(err)
	}
	tcli.CaptureRegions()

	harness.SetParallelism(*parallel)
	harness.SetRunTimeout(*timeout)

	class, err := apps.ParseClass(*className)
	if err != nil {
		fatal(err)
	}
	if *quick {
		class = apps.ClassW
	}

	// A failed experiment — including one whose configuration panicked in a
	// harness worker — is reported and the remaining experiments still run;
	// the process exits nonzero at the end if anything failed.
	var failed []string
	run := func(name string, f func(apps.Class, bool) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := f(class, *quick); err != nil {
			failed = append(failed, name)
			telemetry.Eventf("experiments: %s failed: %v", name, err)
			fmt.Fprintf(os.Stderr, "experiments: %s FAILED: %v\n", name, err)
			fmt.Printf("(%s FAILED after %v)\n\n", name, time.Since(start).Round(time.Millisecond))
			return
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("correctness", correctness)
	run("noise", noise)
	run("equivalence", equivalence)
	run("verify", verifyExp)
	run("table1", table1)
	run("fig6", fig6)
	run("fig7", fig7)
	run("scaling", scaling)
	run("extrap", extrapExp)
	run("overlap", overlapExp)

	if err := tcli.Finish(); err != nil {
		fatal(err)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// critFlag turns on the causal critical-path comparison inside the
// correctness experiment (-critpath).
var critFlag bool

func correctness(apps.Class, bool) error {
	fmt.Println("Section 5.2: per-operation event counts and volumes, original vs generated")
	suite := append(appsSuite(), "sweep3d")
	for _, name := range suite {
		n := apps.ByName(name).RanksAtMost(16)
		res, err := harness.Correctness(name, apps.NewConfig(n, apps.ClassW), netmodel.BlueGeneL())
		if err != nil {
			return err
		}
		status := "MATCH"
		if !res.Match {
			status = "MISMATCH: " + strings.Join(res.Diffs, "; ")
		}
		fmt.Printf("  %-8s %3d ranks: %s\n", name, n, status)
		if critFlag {
			orig, gen, err := harness.CritPathCompare(name, apps.NewConfig(n, apps.ClassW), netmodel.BlueGeneL())
			if err != nil {
				return err
			}
			d := critpath.Diff(orig, gen)
			fmt.Printf("    critical-path diff (max err %.2f%%):\n", d.MaxErrPct())
			for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	return nil
}

func equivalence(apps.Class, bool) error {
	fmt.Println("Section 5.2: per-event trace equivalence, original vs generated")
	suite := append(appsSuite(), "sweep3d")
	for _, name := range suite {
		n := apps.ByName(name).RanksAtMost(16)
		err := harness.Equivalence(name, apps.NewConfig(n, apps.ClassW), netmodel.BlueGeneL())
		status := "EQUIVALENT"
		if err != nil {
			status = "DIFFERS: " + err.Error()
		}
		fmt.Printf("  %-8s %3d ranks: %s\n", name, n, status)
	}
	return nil
}

// verifyExp model-checks every suite kernel's trace at small scale: the
// MP-net must be exhaustively deadlock-free, and where wildcards occur the
// Algorithm 2 assignment must be admitted by the net and the resolved trace
// proven deadlock-free — the formal counterpart to the Section 5.2
// correctness tables.
func verifyExp(apps.Class, bool) error {
	fmt.Println("Formal verification: MP-net deadlock-freedom and wildcard-resolution soundness")
	suite := append(appsSuite(), "sweep3d")
	// Kernels like LU post thousands of wildcard receives at 16 ranks; the
	// full wildcard-space exploration is exhaustive only when it fits this
	// bound, while the resolved-trace proof and the resolver
	// cross-validation are exact regardless.
	opts := &mpnet.Options{MaxStates: 1 << 15}
	for _, name := range suite {
		n := apps.ByName(name).RanksAtMost(16)
		rep, err := harness.Verify(name, apps.NewConfig(n, apps.ClassS), netmodel.BlueGeneL(), opts)
		if err != nil {
			return err
		}
		var status string
		switch {
		case rep.Verdict != nil && rep.Verdict.Counterexample != nil:
			return fmt.Errorf("%s at %d ranks admits a deadlock:\n%s", name, n, rep)
		case rep.DeadlockFree() && rep.Wildcards == 0:
			status = "DEADLOCK-FREE (exhaustive)"
		case rep.DeadlockFree():
			if !rep.ResolverAdmitted {
				return fmt.Errorf("%s at %d ranks: resolver assignment rejected:\n%s", name, n, rep)
			}
			status = fmt.Sprintf("DEADLOCK-FREE (exhaustive), %d wildcards resolved soundly", rep.Wildcards)
		case rep.Wildcards > 0 && rep.ResolverAdmitted &&
			rep.ResolvedVerdict != nil && rep.ResolvedVerdict.DeadlockFree:
			status = fmt.Sprintf("resolved trace proven deadlock-free, %d-wildcard space bounded", rep.Wildcards)
		default:
			return fmt.Errorf("%s at %d ranks is not verified deadlock-free:\n%s", name, n, rep)
		}
		fmt.Printf("  %-8s %3d ranks: %s (%d states, %.0f us)\n",
			name, n, status, rep.Verdict.StatesExplored, rep.VerifyUS)
	}
	return nil
}

func table1(apps.Class, bool) error {
	fmt.Println("Table 1: MPI collectives and their generated coNCePTuaL substitutions")
	n := 4
	counts := []int{128, 256, 384, 512}
	cases := []struct {
		mpiName string
		body    func(*mpi.Rank)
	}{
		{"Allgather", func(r *mpi.Rank) { r.Allgather(r.World(), 64) }},
		{"Allgatherv", func(r *mpi.Rank) { r.Allgatherv(r.World(), counts[r.Rank()]) }},
		{"Alltoallv", func(r *mpi.Rank) { r.Alltoallv(r.World(), counts) }},
		{"Gather", func(r *mpi.Rank) { r.Gather(r.World(), 0, 64) }},
		{"Gatherv", func(r *mpi.Rank) { r.Gatherv(r.World(), 0, counts[r.Rank()]) }},
		{"Reduce_scatter", func(r *mpi.Rank) { r.ReduceScatter(r.World(), counts) }},
		{"Scatter", func(r *mpi.Rank) { r.Scatter(r.World(), 0, 64) }},
		{"Scatterv", func(r *mpi.Rank) { r.Scatterv(r.World(), 0, counts) }},
	}
	for _, c := range cases {
		col := trace.NewCollector(n)
		if _, err := mpi.Run(n, netmodel.Ideal(), c.body, mpi.WithTracer(col.TracerFor)); err != nil {
			return err
		}
		prog, err := core.Generate(col.Trace(), nil)
		if err != nil {
			return err
		}
		fmt.Printf("  MPI_%s =>\n", c.mpiName)
		for _, line := range strings.Split(conceptual.Print(prog), "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.Contains(trimmed, "REDUCE") || strings.Contains(trimmed, "MULTICAST") {
				fmt.Printf("      %s\n", strings.TrimSuffix(trimmed, " THEN"))
			}
		}
	}
	return nil
}

func fig6(class apps.Class, quick bool) error {
	fmt.Printf("Figure 6: timing accuracy of generated benchmarks (class %c, BlueGene/L model)\n", class)
	counts := harness.DefaultFig6Counts()
	if quick {
		counts = harness.SmallFig6Counts()
	}
	points, err := harness.Fig6(class, counts, netmodel.BlueGeneL())
	if err != nil {
		return err
	}
	fmt.Print(harness.Fig6Table(points))
	return nil
}

func fig7(class apps.Class, quick bool) error {
	n := 64
	if quick {
		n = 16
		if class == apps.ClassS || class == apps.ClassW {
			class = apps.ClassA // the saturation study needs bulk messages
		}
	}
	fmt.Printf("Figure 7: BT what-if acceleration study (class %c, %d ranks, Ethernet model)\n", class, n)
	points, err := harness.Fig7(class, n, netmodel.EthernetCluster())
	if err != nil {
		return err
	}
	fmt.Print(harness.Fig7Table(points))
	minIdx, uShaped := harness.Fig7Shape(points)
	fmt.Printf("minimum at %d%% compute; nonlinear upturn toward 0%%: %v\n",
		points[minIdx].ComputePct, uShaped)
	return nil
}

func scaling(apps.Class, bool) error {
	fmt.Println("Scaling: trace and generated-code size versus rank count (Section 2 claims)")
	for _, name := range []string{"ring", "ft", "cg"} {
		var counts []int
		for _, n := range []int{8, 16, 32, 64, 128} {
			if apps.ByName(name).ValidRanks(n) {
				counts = append(counts, n)
			}
		}
		points, err := harness.Scaling(name, apps.ClassS, counts)
		if err != nil {
			return err
		}
		fmt.Print(harness.ScalingTable(points))
	}
	return nil
}

func noise(apps.Class, bool) error {
	fmt.Println("Sensitivity: generated-benchmark timing error vs platform noise")
	fmt.Println("(the paper's 2.9% was measured on a real, noisy Blue Gene/L)")
	points, err := harness.NoiseSensitivity(
		[]string{"bt", "lu", "sweep3d"}, 16, apps.ClassW,
		[]float64{0, 0.01, 0.02, 0.05, 0.10})
	if err != nil {
		return err
	}
	fmt.Print(harness.NoiseTable(points))
	return nil
}

func overlapExp(class apps.Class, quick bool) error {
	n := 64
	if quick || class == apps.ClassS || class == apps.ClassW {
		n, class = 16, apps.ClassA
	}
	fmt.Printf("Section 5.4 (second what-if): full communication/computation overlap (class %c)\n", class)
	points, err := harness.OverlapStudy([]string{"bt", "sp", "mg"}, n, class, netmodel.EthernetCluster())
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("  %-4s %3d ranks: %.3fs -> %.3fs  (%.1f%% faster with overlap)\n",
			p.App, p.Ranks, p.BaselineUS/1e6, p.OverlappedUS/1e6, p.SpeedupPct)
	}
	return nil
}

func extrapExp(apps.Class, bool) error {
	fmt.Println("Extension (Section 6): benchmark generation for untraced rank counts")
	small, err := harness.TraceApp("ring", apps.NewConfig(8, apps.ClassS), netmodel.BlueGeneL())
	if err != nil {
		return err
	}
	medium, err := harness.TraceApp("ring", apps.NewConfig(16, apps.ClassS), netmodel.BlueGeneL())
	if err != nil {
		return err
	}
	for _, target := range []int{64, 128, 256} {
		big, err := extrap.ExtrapolateFrom(small.Trace, medium.Trace, target)
		if err != nil {
			return err
		}
		bench, err := harness.GenerateAndRun(big, netmodel.BlueGeneL())
		if err != nil {
			return err
		}
		direct, err := harness.TraceApp("ring", apps.NewConfig(target, apps.ClassS), netmodel.BlueGeneL())
		if err != nil {
			return err
		}
		equiv := "EQUIVALENT"
		if err := replay.Equivalent(big, direct.Trace); err != nil {
			equiv = "DIFFERS"
		}
		fmt.Printf("  ring @ %4d ranks (from 8+16): comm %s, time %.3fs vs actual %.3fs (err %.2f%%)\n",
			target, equiv, bench.ElapsedUS/1e6, direct.ElapsedUS/1e6,
			100*absf(bench.ElapsedUS-direct.ElapsedUS)/direct.ElapsedUS)
	}
	return nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func appsSuite() []string { return apps.NPBNames() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
