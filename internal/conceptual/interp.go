package conceptual

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
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

// WithMPIOptions forwards options (tracers, timeouts) to the underlying
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
	plans := collectCommPlans(p.Stmts, n)
	// Deterministic per-statement call sites, so traces and profiles never
	// depend on the binary or the checkout.
	sites := stmtSites(p.Stmts)

	// Lower once to the stackless cursor form and run with no per-task
	// goroutines at all — each task is a program counter the engine advances
	// in place. The engine steps one task at a time on this goroutine, so the
	// streams share the log slice without a lock.
	var logs []LogEntry
	cp := lowerCursor(p, n, plans, sites)
	res, err := mpi.RunStackless(n, model, func(rank int) mpi.OpStream {
		return &cursorStream{prog: cp, me: rank, logs: &logs}
	}, cfg.mpiOpts...)
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

// commPlan describes one sub-communicator to create at startup.
type commPlan struct {
	key string
	set taskset.Set
}

// collectCommPlans finds every non-world task group used by a collective
// statement.
func collectCommPlans(stmts []Stmt, n int) []commPlan {
	seen := map[string]taskset.Set{}
	var visit func([]Stmt)
	add := func(sel TaskSel) {
		set := sel.Set(n)
		if set.Size() == n || set.IsEmpty() {
			return
		}
		seen[set.String()] = set
	}
	addPair := func(a, b TaskSel) {
		sa, sb := a.Set(n), b.Set(n)
		u := sa.Union(sb)
		if u.Size() == n || u.IsEmpty() {
			return
		}
		seen[u.String()] = u
	}
	visit = func(ss []Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *LoopStmt:
				visit(x.Body)
			case *SyncStmt:
				add(x.Who)
			case *ReduceStmt:
				addPair(x.Srcs, x.Dsts)
			case *MulticastStmt:
				addPair(x.Srcs, x.Dsts)
			}
		}
	}
	visit(stmts)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	plans := make([]commPlan, len(keys))
	for i, k := range keys {
		plans[i] = commPlan{key: k, set: seen[k]}
	}
	return plans
}
