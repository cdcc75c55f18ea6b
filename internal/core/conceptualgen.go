package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/conceptual"
	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// ConceptualGenerator is the coNCePTuaL backend of the trace traversal
// framework. It translates RSDs into statements, applying Table 1's
// collective substitutions and the absolute-rank translation of Section 4.2.
type ConceptualGenerator struct {
	opts  Options
	t     *trace.Trace
	stack []*[]conceptual.Stmt
	root  []conceptual.Stmt
	// surplus[i] accumulates, for the loop at stack depth i, the extra
	// compute time its body's first iteration needs beyond steady state
	// (per participant set). It is hoisted as a COMPUTE statement placed
	// just before the loop, preserving ScalaTrace's first-iteration
	// delta-time distinction in the generated code.
	surplus []map[string]*loopSurplus
	// partOf and parts are emitPt2Pt's partition of a leaf's participants
	// by peer delta, reused from leaf to leaf.
	partOf map[int]int
	parts  []part
	err    error
}

// part is the participants of a point-to-point leaf whose peers lie delta
// ranks above them (modulo the task count).
type part struct {
	delta int
	ranks []int
}

type loopSurplus struct {
	who conceptual.TaskSel
	us  float64
}

// NewConceptualGenerator returns a backend configured by opts (nil for
// defaults).
func NewConceptualGenerator(opts *Options) *ConceptualGenerator {
	g := &ConceptualGenerator{partOf: map[int]int{}}
	if opts != nil {
		g.opts = *opts
	}
	return g
}

// Begin implements CodeGenerator.
func (g *ConceptualGenerator) Begin(t *trace.Trace) {
	g.t = t
	g.root = nil
	g.stack = []*[]conceptual.Stmt{&g.root}
	g.surplus = []map[string]*loopSurplus{nil}
}

func (g *ConceptualGenerator) top() *[]conceptual.Stmt { return g.stack[len(g.stack)-1] }

func (g *ConceptualGenerator) emit(s conceptual.Stmt) {
	*g.top() = append(*g.top(), s)
}

// StartLoop implements CodeGenerator: a PRSD becomes FOR n REPETITIONS.
func (g *ConceptualGenerator) StartLoop(iters int) {
	loop := &conceptual.LoopStmt{Count: iters}
	g.emit(loop)
	g.stack = append(g.stack, &loop.Body)
	g.surplus = append(g.surplus, map[string]*loopSurplus{})
}

// EndLoop implements CodeGenerator. The body's accumulated first-iteration
// surplus is hoisted into a COMPUTE statement immediately before the loop.
func (g *ConceptualGenerator) EndLoop() {
	if len(g.stack) <= 1 {
		return
	}
	sur := g.surplus[len(g.surplus)-1]
	g.stack = g.stack[:len(g.stack)-1]
	g.surplus = g.surplus[:len(g.surplus)-1]

	if len(sur) == 0 {
		return
	}
	parent := g.top()
	if len(*parent) == 0 {
		return
	}
	loopStmt := (*parent)[len(*parent)-1]
	pre := make([]conceptual.Stmt, 0, len(sur))
	keys := make([]string, 0, len(sur))
	for k := range sur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sur[k].us >= computeFloorUS {
			pre = append(pre, &conceptual.ComputeStmt{Who: sur[k].who, USecs: sur[k].us})
		}
	}
	if len(pre) == 0 {
		return
	}
	*parent = append((*parent)[:len(*parent)-1], append(pre, loopStmt)...)
}

// Program finalizes generation: the statement stream is wrapped with timer
// reset and logging so the benchmark reports its total run time, as the
// generated benchmarks in Section 5.3 do.
func (g *ConceptualGenerator) Program() (*conceptual.Program, error) {
	if g.err != nil {
		return nil, g.err
	}
	comments := append([]string{
		"Generated by scalatrace-go benchgen (trace-driven benchmark generation)",
	}, g.opts.Comments...)
	stmts := make([]conceptual.Stmt, 0, len(g.root)+2)
	stmts = append(stmts, &conceptual.ResetStmt{Who: conceptual.AllTasks})
	stmts = append(stmts, g.root...)
	stmts = append(stmts, &conceptual.LogStmt{Who: conceptual.AllTasks, Label: "Total time (us)"})
	return &conceptual.Program{
		Comments: comments,
		NumTasks: g.t.N,
		Stmts:    stmts,
	}, nil
}

// Event implements CodeGenerator: one RSD becomes zero or more statements.
func (g *ConceptualGenerator) Event(r *trace.RSD) error {
	// Computation preceding the call becomes an explicit COMPUTE phase
	// (steady-state mean); any first-iteration excess is accumulated for
	// hoisting before the enclosing loop.
	if mean := r.ComputeMean(); mean >= computeFloorUS {
		g.emit(&conceptual.ComputeStmt{Who: g.sel(r.Ranks), USecs: mean})
	}
	if extra := r.FirstComputeMean() - r.ComputeMean(); extra > 0 && len(g.surplus) > 1 {
		sur := g.surplus[len(g.surplus)-1]
		key := r.Ranks.String()
		if entry, ok := sur[key]; ok {
			entry.us += extra
		} else {
			sur[key] = &loopSurplus{who: g.sel(r.Ranks), us: extra}
		}
	}
	switch r.Op {
	case mpi.OpInit, mpi.OpFinalize:
		// Benchmark setup/teardown is implicit in coNCePTuaL.
		return nil
	case mpi.OpIsend, mpi.OpSend:
		return g.emitPt2Pt(r, true)
	case mpi.OpIrecv, mpi.OpRecv:
		return g.emitPt2Pt(r, false)
	case mpi.OpWait, mpi.OpWaitall:
		g.emit(&conceptual.AwaitStmt{Who: g.sel(r.Ranks)})
	case mpi.OpBarrier:
		g.emit(&conceptual.SyncStmt{Who: g.sel(r.Ranks)})
	case mpi.OpBcast:
		g.emit(&conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.Size})
	case mpi.OpReduce:
		g.emit(&conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.Size})
	case mpi.OpAllreduce:
		sel := g.sel(r.Ranks)
		g.emit(&conceptual.ReduceStmt{Srcs: sel, Dsts: sel, Size: r.Size})
	case mpi.OpGather:
		// Table 1: Gather -> REDUCE.
		g.emit(&conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.Size})
	case mpi.OpGatherv:
		// Table 1: Gatherv -> REDUCE with averaged message size.
		g.emit(&conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.MeanCount()})
	case mpi.OpAllgather:
		// Table 1: Allgather -> REDUCE + MULTICAST.
		g.emitReducePlusMulticast(r, r.Size)
	case mpi.OpAllgatherv:
		// Table 1: Allgatherv -> REDUCE with averaged size + MULTICAST.
		g.emitReducePlusMulticast(r, r.MeanCount())
	case mpi.OpAlltoall:
		sel := g.sel(r.Ranks)
		g.emit(&conceptual.MulticastStmt{Srcs: sel, Dsts: sel, Size: r.Size})
	case mpi.OpAlltoallv:
		// Table 1: Alltoallv -> MULTICAST with averaged message size.
		sel := g.sel(r.Ranks)
		g.emit(&conceptual.MulticastStmt{Srcs: sel, Dsts: sel, Size: r.PerPeerSize()})
	case mpi.OpScatter:
		// Table 1: Scatter -> MULTICAST.
		g.emit(&conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.Size})
	case mpi.OpScatterv:
		// Table 1: Scatterv -> MULTICAST with averaged message size.
		g.emit(&conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.MeanCount()})
	case mpi.OpReduceScatter:
		// Table 1: Reduce_scatter -> n many-to-one REDUCEs with different
		// message sizes and roots, n being the communicator size.
		g.emitReduceScatter(r)
	case mpi.OpCommSplit, mpi.OpCommDup:
		// Communicators have no coNCePTuaL equivalent; the synchronization
		// cost of creating one is preserved as a barrier over the parent.
		g.emit(&conceptual.SyncStmt{Who: g.parentSel(r)})
	default:
		return fmt.Errorf("core: no coNCePTuaL mapping for %v", r.Op)
	}
	return nil
}

// sel converts a world-rank set into the most readable task selector.
func (g *ConceptualGenerator) sel(s taskset.Set) conceptual.TaskSel {
	return s.Describe(g.t.N)
}

// parentSel selects the members of the communicator a comm-management
// operation ran on.
func (g *ConceptualGenerator) parentSel(r *trace.RSD) conceptual.TaskSel {
	return g.sel(taskset.Of(g.t.CommGroup(r.CommID)...))
}

func (g *ConceptualGenerator) emitReducePlusMulticast(r *trace.RSD, size int) {
	sel := g.sel(r.Ranks)
	rootWorld := g.minWorld(r)
	g.emit(&conceptual.ReduceStmt{Srcs: sel, Dsts: conceptual.OneTask(rootWorld), Size: size})
	g.emit(&conceptual.MulticastStmt{Srcs: conceptual.OneTask(rootWorld), Dsts: sel, Size: size})
}

func (g *ConceptualGenerator) minWorld(r *trace.RSD) int {
	if r.Ranks.IsEmpty() {
		return 0
	}
	return r.Ranks.Min()
}

func (g *ConceptualGenerator) emitReduceScatter(r *trace.RSD) {
	sel := g.sel(r.Ranks)
	group := g.t.CommGroup(r.CommID)
	for i, world := range group {
		g.emit(&conceptual.ReduceStmt{Srcs: sel, Dsts: conceptual.OneTask(world), Size: r.SegmentSize(i, len(group))})
	}
}

// emitPt2Pt translates a point-to-point RSD. Peers are expressed in
// absolute world ranks or world-relative offsets; when the RSD's
// communicator-relative pattern does not correspond to a single world-rank
// offset (irregular sub-communicators), the participants are partitioned by
// offset and one statement is emitted per partition.
func (g *ConceptualGenerator) emitPt2Pt(r *trace.RSD, isSend bool) error {
	if r.Peer.Kind == trace.ParamAny {
		return fmt.Errorf("core: unresolved wildcard receive at site %x (run Algorithm 2 first)", r.Site)
	}
	async := r.Op == mpi.OpIsend || r.Op == mpi.OpIrecv
	n := g.t.N

	// Partition the participants by world-rank delta to their peer, into
	// buffers kept from leaf to leaf.
	clear(g.partOf)
	g.parts = g.parts[:0]
	absPeer := -1
	absUniform := true
	for _, w := range r.Ranks.Members() {
		world := r.WorldPeerFor(w, g.t)
		if absPeer == -1 {
			absPeer = world
		} else if absPeer != world {
			absUniform = false
		}
		delta := (world - w) % n
		if delta < 0 {
			delta += n
		}
		i, ok := g.partOf[delta]
		if !ok {
			i = len(g.parts)
			g.partOf[delta] = i
			g.parts = slices.Grow(g.parts, 1)[:i+1]
			g.parts[i] = part{delta, g.parts[i].ranks[:0]}
		}
		// Members ascend, so each partition's ranks do too.
		g.parts[i].ranks = append(g.parts[i].ranks, w)
	}

	emitOne := func(who conceptual.TaskSel, peer conceptual.RankExpr) {
		if isSend {
			g.emit(&conceptual.SendStmt{Who: who, Async: async, Size: r.Size, Dest: peer})
		} else {
			g.emit(&conceptual.RecvStmt{Who: who, Async: async, Size: r.Size, Source: peer})
		}
	}

	// A single shared absolute peer (e.g. everyone sends to task 0) is the
	// most readable form.
	if absUniform && r.Ranks.Size() > 0 && (r.Peer.Kind == trace.ParamAbs || r.Ranks.Size() == 1) {
		emitOne(g.sel(r.Ranks), conceptual.AbsRank(absPeer))
		return nil
	}

	slices.SortFunc(g.parts, func(a, b part) int { return a.delta - b.delta })
	for _, pt := range g.parts {
		emitOne(g.sel(taskset.Of(pt.ranks...)), conceptual.RelRank(pt.delta))
	}
	return nil
}
