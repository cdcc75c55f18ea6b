package conceptual

import (
	"fmt"
	"sort"
	"sync"

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
	mpiOpts  []mpi.Option
	treeWalk bool
}

// WithMPIOptions forwards options (tracers, timeouts) to the underlying
// runtime — this is how a generated benchmark is itself traced or profiled,
// as in Section 5.2.
func WithMPIOptions(opts ...mpi.Option) RunOption {
	return func(c *runConfig) { c.mpiOpts = append(c.mpiOpts, opts...) }
}

// WithTreeWalk interprets the AST directly, one coroutine rank per task,
// instead of lowering the program to stackless cursors. Both paths issue
// identical runtime calls and produce bit-identical virtual clocks, traces
// and logs; the tree walker is the reference the differential tests compare
// the cursors against, and no production caller selects it.
func WithTreeWalk() RunOption {
	return func(c *runConfig) { c.treeWalk = true }
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
	// Deterministic per-statement call sites, stamped identically by every
	// execution path so traces and profiles never depend on representation.
	sites := stmtSites(p.Stmts)

	var mu sync.Mutex
	var logs []LogEntry

	var res *mpi.Result
	var err error
	if !cfg.treeWalk {
		// Lower once to the stackless cursor form and run with no per-task
		// goroutines at all — each task is a program counter the engine
		// advances in place. RunStackless refuses the goroutine runtime.
		cp := lowerCursor(p, n, plans, sites)
		res, err = mpi.RunStackless(n, model, func(rank int) mpi.OpStream {
			return &cursorStream{prog: cp, me: rank, mu: &mu, logs: &logs}
		}, cfg.mpiOpts...)
	} else {
		body := func(r *mpi.Rank) {
			st := &taskState{
				rank:  r,
				n:     n,
				comms: map[string]*mpi.Comm{},
				sites: sites,
				mu:    &mu,
				logs:  &logs,
			}
			for i, plan := range plans {
				color := -1
				if plan.set.Contains(r.Rank()) {
					color = 0
				}
				r.SetCallSite(planSite(i))
				if sub := r.CommSplit(r.World(), color, r.Rank()); sub != nil {
					st.comms[plan.key] = sub
				}
			}
			st.exec(p.Stmts)
			if len(st.outstanding) > 0 {
				// The stackless end-of-body drain stamps this constant; stamp
				// it here too so the implicit trailing Waitall traces
				// identically.
				r.SetCallSite(mpi.EndDrainSite)
				r.Waitall(st.outstanding...)
				st.outstanding = nil
			}
		}
		res, err = mpi.Run(n, model, body, cfg.mpiOpts...)
	}
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

// taskState is one task's state under the tree-walk reference path.
type taskState struct {
	rank        *mpi.Rank
	n           int
	comms       map[string]*mpi.Comm // task-group key -> communicator
	sites       map[Stmt]siteInfo    // deterministic call sites
	outstanding []*mpi.Request
	resetAt     float64
	mu          *sync.Mutex
	logs        *[]LogEntry
}

// commFor returns the communicator covering the union of the given task
// sets (the world communicator when the union covers everyone).
func (st *taskState) commFor(sets ...taskset.Set) *mpi.Comm {
	u := taskset.Empty
	for _, s := range sets {
		u = u.Union(s)
	}
	if u.Size() == st.n {
		return st.rank.World()
	}
	if c, ok := st.comms[u.String()]; ok {
		return c
	}
	// Should have been planned; fall back to world to stay safe.
	return st.rank.World()
}

func (st *taskState) exec(stmts []Stmt) {
	me := st.rank.Rank()
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			for i := 0; i < x.Count; i++ {
				st.exec(x.Body)
			}
		case *SendStmt:
			if !x.Who.Contains(me, st.n) {
				continue
			}
			dst := x.Dest.Eval(me, st.n)
			st.rank.SetCallSite(st.sites[s].pri)
			if x.Async {
				st.outstanding = append(st.outstanding, st.rank.Isend(st.rank.World(), dst, 0, x.Size))
			} else {
				st.rank.Send(st.rank.World(), dst, 0, x.Size)
			}
		case *RecvStmt:
			if !x.Who.Contains(me, st.n) {
				continue
			}
			src := x.Source.Eval(me, st.n)
			st.rank.SetCallSite(st.sites[s].pri)
			if x.Async {
				st.outstanding = append(st.outstanding, st.rank.Irecv(st.rank.World(), src, 0, x.Size))
			} else {
				st.rank.Recv(st.rank.World(), src, 0, x.Size)
			}
		case *AwaitStmt:
			if !x.Who.Contains(me, st.n) {
				continue
			}
			if len(st.outstanding) > 0 {
				st.rank.SetCallSite(st.sites[s].pri)
				st.rank.Waitall(st.outstanding...)
				st.outstanding = st.outstanding[:0]
			}
		case *SyncStmt:
			if !x.Who.Contains(me, st.n) {
				continue
			}
			st.rank.SetCallSite(st.sites[s].pri)
			st.rank.Barrier(st.commFor(x.Who.Set(st.n)))
		case *ReduceStmt:
			st.execReduce(x)
		case *MulticastStmt:
			st.execMulticast(x)
		case *ComputeStmt:
			if x.Who.Contains(me, st.n) {
				st.rank.Compute(x.USecs)
			}
		case *ResetStmt:
			if x.Who.Contains(me, st.n) {
				st.resetAt = st.rank.Clock()
			}
		case *LogStmt:
			if x.Who.Contains(me, st.n) {
				entry := LogEntry{Label: x.Label, Task: me, Value: st.rank.Clock() - st.resetAt}
				st.mu.Lock()
				*st.logs = append(*st.logs, entry)
				st.mu.Unlock()
			}
		}
	}
}

// execReduce maps a REDUCE statement onto the runtime: sources equal to
// destinations is an allreduce, a singleton destination is a rooted reduce,
// and anything else is a reduce followed by a multicast among the
// destinations.
func (st *taskState) execReduce(x *ReduceStmt) {
	me := st.rank.Rank()
	srcs, dsts := x.Srcs.Set(st.n), x.Dsts.Set(st.n)
	if !srcs.Contains(me) && !dsts.Contains(me) {
		return
	}
	comm := st.commFor(srcs, dsts)
	si := st.sites[x]
	switch {
	case srcs.Equal(dsts):
		st.rank.SetCallSite(si.pri)
		st.rank.Allreduce(comm, x.Size)
	case dsts.Size() == 1:
		root, _ := comm.CommRank(dsts.Min())
		st.rank.SetCallSite(si.pri)
		st.rank.Reduce(comm, root, x.Size)
	default:
		root, _ := comm.CommRank(dsts.Min())
		st.rank.SetCallSite(si.pri)
		st.rank.Reduce(comm, root, x.Size)
		st.rank.SetCallSite(si.sec)
		st.rank.Bcast(comm, root, x.Size)
	}
}

// execMulticast maps a MULTICAST statement: a singleton source is a
// broadcast; multiple sources form a many-to-many exchange (Table 1's
// Alltoall family).
func (st *taskState) execMulticast(x *MulticastStmt) {
	me := st.rank.Rank()
	srcs, dsts := x.Srcs.Set(st.n), x.Dsts.Set(st.n)
	if !srcs.Contains(me) && !dsts.Contains(me) {
		return
	}
	comm := st.commFor(srcs, dsts)
	st.rank.SetCallSite(st.sites[x].pri)
	if srcs.Size() == 1 {
		root, _ := comm.CommRank(srcs.Min())
		st.rank.Bcast(comm, root, x.Size)
		return
	}
	st.rank.Alltoall(comm, x.Size)
}
