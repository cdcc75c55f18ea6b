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

// ConceptualGenerator builds the coNCePTuaL program of a trace. It
// translates RSDs into statements, applying Table 1's collective
// substitutions and the absolute-rank translation of Section 4.2.
type ConceptualGenerator struct {
	opts Options
	t    *trace.Trace
	root []conceptual.Stmt
	// partOf and parts are pt2pt's partition of a leaf's participants by
	// peer delta, reused from leaf to leaf.
	partOf map[int]int
	parts  []part
}

// part is the participants of a point-to-point leaf whose peers lie delta
// ranks above them (modulo the task count).
type part struct {
	delta int
	ranks []int
}

// surplus accumulates, per participant set, the extra compute time a loop
// body's first iteration needs beyond steady state. It is hoisted as COMPUTE
// statements placed just before the loop, preserving ScalaTrace's
// first-iteration delta-time distinction in the generated code.
type surplus map[string]*loopSurplus

type loopSurplus struct {
	who conceptual.TaskSel
	us  float64
}

// NewConceptualGenerator returns a generator configured by opts (nil for
// defaults).
func NewConceptualGenerator(opts *Options) *ConceptualGenerator {
	g := &ConceptualGenerator{partOf: map[int]int{}}
	if opts != nil {
		g.opts = *opts
	}
	return g
}

// build implements CodeGenerator: the groups' statements, in rank order.
func (g *ConceptualGenerator) build(t *trace.Trace) error {
	g.t = t
	g.root = nil
	for _, grp := range t.Groups {
		var err error
		if g.root, err = g.seq(g.root, grp.Seq, nil); err != nil {
			return err
		}
	}
	return nil
}

// seq appends the statements of nodes to out. A leaf's first-iteration
// surplus goes into sur, the innermost enclosing loop's (nil outside every
// loop); a PRSD becomes FOR n REPETITIONS, preceded by its body's surplus.
func (g *ConceptualGenerator) seq(out []conceptual.Stmt, nodes []trace.Node, sur surplus) ([]conceptual.Stmt, error) {
	for _, n := range nodes {
		var err error
		switch x := n.(type) {
		case *trace.RSD:
			out, err = g.leaf(out, x, sur)
		case *trace.Loop:
			inner := surplus{}
			loop := &conceptual.LoopStmt{Count: x.Iters}
			if loop.Body, err = g.seq(nil, x.Body, inner); err == nil {
				out = append(inner.hoist(out), loop)
			}
		default:
			err = fmt.Errorf("core: unknown node type %T", n)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hoist appends the surplus's COMPUTE statements of at least computeFloorUS
// to out, sorted by rank set.
func (sur surplus) hoist(out []conceptual.Stmt) []conceptual.Stmt {
	keys := make([]string, 0, len(sur))
	for k := range sur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sur[k].us >= computeFloorUS {
			out = append(out, &conceptual.ComputeStmt{Who: sur[k].who, USecs: sur[k].us})
		}
	}
	return out
}

// Program finalizes generation: the statement stream is wrapped with timer
// reset and logging so the benchmark reports its total run time, as the
// generated benchmarks in Section 5.3 do.
func (g *ConceptualGenerator) Program() (*conceptual.Program, error) {
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

// leaf appends the zero or more statements of one RSD to out.
func (g *ConceptualGenerator) leaf(out []conceptual.Stmt, r *trace.RSD, sur surplus) ([]conceptual.Stmt, error) {
	// Computation preceding the call becomes an explicit COMPUTE phase
	// (steady-state mean); any first-iteration excess is accumulated for
	// hoisting before the enclosing loop.
	if mean := r.ComputeMean(); mean >= computeFloorUS {
		out = append(out, &conceptual.ComputeStmt{Who: g.sel(r.Ranks), USecs: mean})
	}
	if extra := r.FirstComputeMean() - r.ComputeMean(); extra > 0 && sur != nil {
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
	case mpi.OpIsend, mpi.OpSend:
		return g.pt2pt(out, r, true)
	case mpi.OpIrecv, mpi.OpRecv:
		return g.pt2pt(out, r, false)
	case mpi.OpWait, mpi.OpWaitall:
		out = append(out, &conceptual.AwaitStmt{Who: g.sel(r.Ranks)})
	case mpi.OpBarrier:
		out = append(out, &conceptual.SyncStmt{Who: g.sel(r.Ranks)})
	case mpi.OpBcast:
		out = append(out, &conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.Size})
	case mpi.OpReduce:
		out = append(out, &conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.Size})
	case mpi.OpAllreduce:
		sel := g.sel(r.Ranks)
		out = append(out, &conceptual.ReduceStmt{Srcs: sel, Dsts: sel, Size: r.Size})
	case mpi.OpGather:
		// Table 1: Gather -> REDUCE.
		out = append(out, &conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.Size})
	case mpi.OpGatherv:
		// Table 1: Gatherv -> REDUCE with averaged message size.
		out = append(out, &conceptual.ReduceStmt{
			Srcs: g.sel(r.Ranks), Dsts: conceptual.OneTask(r.WorldRoot(g.t)), Size: r.MeanCount()})
	case mpi.OpAllgather:
		// Table 1: Allgather -> REDUCE + MULTICAST.
		out = g.reducePlusMulticast(out, r, r.Size)
	case mpi.OpAllgatherv:
		// Table 1: Allgatherv -> REDUCE with averaged size + MULTICAST.
		out = g.reducePlusMulticast(out, r, r.MeanCount())
	case mpi.OpAlltoall:
		sel := g.sel(r.Ranks)
		out = append(out, &conceptual.MulticastStmt{Srcs: sel, Dsts: sel, Size: r.Size})
	case mpi.OpAlltoallv:
		// Table 1: Alltoallv -> MULTICAST with averaged message size.
		sel := g.sel(r.Ranks)
		out = append(out, &conceptual.MulticastStmt{Srcs: sel, Dsts: sel, Size: r.PerPeerSize()})
	case mpi.OpScatter:
		// Table 1: Scatter -> MULTICAST.
		out = append(out, &conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.Size})
	case mpi.OpScatterv:
		// Table 1: Scatterv -> MULTICAST with averaged message size.
		out = append(out, &conceptual.MulticastStmt{
			Srcs: conceptual.OneTask(r.WorldRoot(g.t)), Dsts: g.sel(r.Ranks), Size: r.MeanCount()})
	case mpi.OpReduceScatter:
		// Table 1: Reduce_scatter -> n many-to-one REDUCEs with different
		// message sizes and roots, n being the communicator size.
		sel := g.sel(r.Ranks)
		group := g.t.CommGroup(r.CommID)
		for i, world := range group {
			out = append(out, &conceptual.ReduceStmt{Srcs: sel, Dsts: conceptual.OneTask(world), Size: r.SegmentSize(i, len(group))})
		}
	case mpi.OpCommSplit, mpi.OpCommDup:
		// Communicators have no coNCePTuaL equivalent; the synchronization
		// cost of creating one is preserved as a barrier over the parent.
		out = append(out, &conceptual.SyncStmt{Who: g.parentSel(r)})
	default:
		return nil, fmt.Errorf("core: no coNCePTuaL mapping for %v", r.Op)
	}
	return out, nil
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

func (g *ConceptualGenerator) reducePlusMulticast(out []conceptual.Stmt, r *trace.RSD, size int) []conceptual.Stmt {
	sel := g.sel(r.Ranks)
	root := conceptual.OneTask(0)
	if !r.Ranks.IsEmpty() {
		root = conceptual.OneTask(r.Ranks.Min())
	}
	return append(out,
		&conceptual.ReduceStmt{Srcs: sel, Dsts: root, Size: size},
		&conceptual.MulticastStmt{Srcs: root, Dsts: sel, Size: size})
}

// pt2pt appends the statements of a point-to-point RSD. Peers are expressed
// in absolute world ranks or world-relative offsets; when the RSD's
// communicator-relative pattern does not correspond to a single world-rank
// offset (irregular sub-communicators), the participants are partitioned by
// offset and one statement is appended per partition.
func (g *ConceptualGenerator) pt2pt(out []conceptual.Stmt, r *trace.RSD, isSend bool) ([]conceptual.Stmt, error) {
	if r.Peer.Kind == trace.ParamAny {
		return nil, fmt.Errorf("core: unresolved wildcard receive at site %x (run Algorithm 2 first)", r.Site)
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

	stmt := func(who conceptual.TaskSel, peer conceptual.RankExpr) conceptual.Stmt {
		if isSend {
			return &conceptual.SendStmt{Who: who, Async: async, Size: r.Size, Dest: peer}
		}
		return &conceptual.RecvStmt{Who: who, Async: async, Size: r.Size, Source: peer}
	}

	// A single shared absolute peer (e.g. everyone sends to task 0) is the
	// most readable form.
	if absUniform && r.Ranks.Size() > 0 && (r.Peer.Kind == trace.ParamAbs || r.Ranks.Size() == 1) {
		return append(out, stmt(g.sel(r.Ranks), conceptual.AbsRank(absPeer))), nil
	}

	slices.SortFunc(g.parts, func(a, b part) int { return a.delta - b.delta })
	for _, pt := range g.parts {
		out = append(out, stmt(g.sel(taskset.Of(pt.ranks...)), conceptual.RelRank(pt.delta)))
	}
	return out, nil
}
