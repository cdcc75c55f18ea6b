// Quickstart walks the full pipeline of the paper's Figure 1 on the ring
// program of Figure 2: run the application on the simulated MPI runtime
// under ScalaTrace-style collection, generate a coNCePTuaL benchmark from
// the trace, print the (editable) benchmark source, execute it, and compare
// its run time and communication profile against the original.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/harness"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

func main() {
	const ranks = 8
	model := netmodel.BlueGeneL()

	// 1. Run + trace the original application.
	fmt.Println("== tracing the ring application (Figure 2) on 8 simulated ranks ==")
	run, err := harness.TraceApp("ring", apps.NewConfig(ranks, apps.ClassS), model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original virtual run time: %.3f ms\n", run.ElapsedUS/1e3)
	fmt.Printf("trace: %d events compressed into %d nodes\n\n",
		run.Trace.TotalEvents(), run.Trace.NodeCount())

	// 2. Generate the coNCePTuaL benchmark and show its source.
	bench, err := harness.GenerateAndRun(run.Trace, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== generated coNCePTuaL benchmark ==")
	fmt.Println(conceptual.Print(bench.Program))

	// 3. Compare timing and communication.
	fmt.Println("== original vs generated ==")
	fmt.Printf("original:  %.3f ms\n", run.ElapsedUS/1e3)
	fmt.Printf("generated: %.3f ms\n", bench.ElapsedUS/1e3)
	fmt.Printf("error:     %.2f%%\n\n", stats.AbsPercentError(bench.ElapsedUS, run.ElapsedUS))

	if report := mpip.Diff(run.Profile, bench.Profile); report.Match() {
		fmt.Println("communication profiles match operation for operation")
	} else {
		fmt.Println("profile differences (expected only for substituted collectives):")
		fmt.Print(report)
	}

	// 4. The benchmark is editable: its printed source is the artifact. The
	// text parses back to a program that prints as the same text and, parsed
	// twice, runs to the same clock. (The in-memory program is not the
	// comparison: the text carries COMPUTE times to three decimals.)
	src := conceptual.Print(bench.Program)
	var elapsed [2]float64
	for i := range elapsed {
		parsed, err := conceptual.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		again, err := conceptual.Execute(parsed, ranks, model)
		if err != nil {
			log.Fatal(err)
		}
		elapsed[i] = again.ElapsedUS
		src = conceptual.Print(parsed)
	}
	fmt.Printf("\nre-parsed benchmark runs in %.3f ms (identical: %v)\n",
		elapsed[0]/1e3, src == conceptual.Print(bench.Program) && elapsed[0] == elapsed[1])
}
