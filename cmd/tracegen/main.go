// Command tracegen runs a workload from the application suite on the
// simulated MPI runtime under ScalaTrace-style collection and writes the
// compressed communication trace — the first stage of the paper's Figure 1
// pipeline.
//
// Usage:
//
//	tracegen -app bt -n 16 -class W [-model bluegene] [-o bt.trace] [-profile]
//	         [-telemetry] [-timeline run.json] [-serve :8080]
//
// With -timeline the simulated run's virtual-time schedule is exported as
// Chrome trace-event JSON (one row per rank); open it in ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		appName   = flag.String("app", "ring", "application to trace (see -list)")
		n         = flag.Int("n", 16, "number of MPI ranks")
		className = flag.String("class", "W", "NPB problem class (S, W, A, B, C)")
		modelName = flag.String("model", "bluegene", "platform model ("+netmodel.PresetNames+")")
		out       = flag.String("o", "", "output trace file (default stdout)")
		profile   = flag.Bool("profile", false, "print the mpiP-style profile to stderr")
		list      = flag.Bool("list", false, "list available applications and exit")
	)
	tcli := telemetry.NewCLI()
	flag.Parse()

	if *list {
		for _, name := range apps.Names() {
			fmt.Printf("%-10s %s\n", name, apps.ByName(name).Description)
		}
		return
	}
	if err := tcli.Start(); err != nil {
		fatal(err)
	}

	class, err := apps.ParseClass(*className)
	if err != nil {
		fatal(err)
	}
	model, err := netmodel.Lookup(*modelName)
	if err != nil {
		fatal(err)
	}

	// With -timeline, a per-rank virtual-time tracer rides along with the
	// trace collector and profiler.
	var extra []func(rank int) mpi.Tracer
	if tl := tcli.Timeline(); tl != nil {
		extra = append(extra, mpi.TimelineTracer(tl))
	}
	run, err := harness.TraceApp(*appName, apps.NewConfig(*n, class), model, extra...)
	if err != nil {
		fatal(err)
	}
	if *profile {
		fmt.Fprintln(os.Stderr, run.Profile)
		fmt.Fprintf(os.Stderr, "original run time: %.3f s (virtual)\n", run.ElapsedUS/1e6)
		fmt.Fprintf(os.Stderr, "trace: %d events compressed into %d nodes\n",
			run.Trace.TotalEvents(), run.Trace.NodeCount())
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.Encode(w, run.Trace); err != nil {
		fatal(err)
	}
	if err := tcli.Finish(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
