package conceptual

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// LogEntry is one value recorded by a LOG statement.
type LogEntry struct {
	Label string
	Task  int
	Value float64
}

// RunResult reports a program execution.
type RunResult struct {
	// PerTaskUS holds each task's final virtual clock.
	PerTaskUS []float64
	// ElapsedUS is the virtual makespan.
	ElapsedUS float64
	// Logs holds LOG-statement output in task order.
	Logs []LogEntry
}

// RunOption configures Execute.
type RunOption func(*runConfig)

type runConfig struct {
	mpiOpts []mpi.Option
}

// WithMPIOptions forwards options (tracers, contexts) to the underlying
// runtime — this is how a generated benchmark is itself traced or profiled,
// as in Section 5.2.
func WithMPIOptions(opts ...mpi.Option) RunOption {
	return func(c *runConfig) { c.mpiOpts = append(c.mpiOpts, opts...) }
}

// Execute interprets the program on n simulated tasks over the given network
// model. It plays the role of compiling the coNCePTuaL source to C+MPI and
// running it on the target machine.
func Execute(p *Program, n int, model *netmodel.Model, opts ...RunOption) (*RunResult, error) {
	defer telemetry.Region("conceptual.execute")()
	if n <= 0 {
		return nil, fmt.Errorf("conceptual: task count %d must be positive", n)
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}

	// Pre-plan the communicators needed by collective statements over
	// non-world task groups. All tasks create them up front in a fixed
	// order, as the coNCePTuaL runtime does during initialization.
	cm := planComms(p.Stmts, n)
	// Deterministic per-statement call sites, so traces and profiles never
	// depend on the binary or the checkout.
	sites := stmtSites(p.Stmts)

	// Lower once to the stackless program form and run with no per-task
	// goroutines at all — each task is a program counter the engine advances
	// in place. The engine steps one task at a time on this goroutine, so the
	// mark callback keeps the RESET clocks and the log without a lock; it runs
	// between operations, so the clock it reads is the task's clock at exactly
	// that program point.
	var logs []LogEntry
	resetAt := make([]float64, n)
	cp := lowerCursor(p, cm, sites)
	streams := mpi.ProgramStreams(n, func(rank int) (*mpi.Program, int) { return &cp.Program, rank },
		func(r *mpi.Rank, mark int) {
			if me := r.Rank(); mark == 0 {
				resetAt[me] = r.Clock()
			} else {
				logs = append(logs, LogEntry{Label: cp.labels[mark-1], Task: me, Value: r.Clock() - resetAt[me]})
			}
		})
	res, err := mpi.RunStackless(n, model, streams, cfg.mpiOpts...)
	if err != nil {
		return nil, err
	}
	sort.Slice(logs, func(i, j int) bool {
		if logs[i].Label != logs[j].Label {
			return logs[i].Label < logs[j].Label
		}
		return logs[i].Task < logs[j].Task
	})
	return &RunResult{PerTaskUS: res.PerRankUS, ElapsedUS: res.ElapsedUS, Logs: logs}, nil
}
