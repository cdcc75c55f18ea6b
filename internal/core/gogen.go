package core

import (
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// GoGenerator is a second, independent CodeGenerator backend: it emits a
// complete, runnable Go program that reproduces the trace on this module's
// simulated MPI runtime. It exists to demonstrate the paper's Section 4.1
// claim that "by implementing a generator for a different target language,
// we can easily generate code for languages other than CONCEPTUAL" — here
// the other language is Go itself, and the emitted program compiles against
// repro/internal/mpi.
type GoGenerator struct {
	t      *trace.Trace
	body   strings.Builder
	indent int
	loopID int
	err    error
}

// NewGoGenerator returns a fresh Go-source backend.
func NewGoGenerator() *GoGenerator { return &GoGenerator{} }

// Begin implements CodeGenerator.
func (g *GoGenerator) Begin(t *trace.Trace) {
	g.t = t
	g.indent = 2
	// 70-530 bytes of Go per trace node, typically under 200.
	g.body.Grow(256 * t.NodeCount())
}

func (g *GoGenerator) line(format string, args ...any) {
	g.body.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.body, format, args...)
	g.body.WriteByte('\n')
}

// StartLoop implements CodeGenerator.
func (g *GoGenerator) StartLoop(iters int) {
	g.loopID++
	v := fmt.Sprintf("i%d", g.loopID)
	g.line("for %s := 0; %s < %d; %s++ {", v, v, iters, v)
	g.line("\t_ = %s", v)
	g.indent++
}

// EndLoop implements CodeGenerator.
func (g *GoGenerator) EndLoop() {
	g.indent--
	g.line("}")
}

// guard opens an if-statement scoping the following code to the leaf's
// participants, returning whether a closing brace is owed.
func (g *GoGenerator) guard(ranks taskset.Set) bool {
	if ranks.Size() == g.t.N {
		return false
	}
	p := ranks.Describe(g.t.N)
	switch p.Kind {
	case taskset.KindSingleton:
		g.line("if me == %d {", p.Value)
	case taskset.KindRange:
		g.line("if me >= %d && me <= %d {", p.Lo, p.Hi)
	case taskset.KindStride:
		g.line("if me%%%d == %d {", p.Stride, p.Offset)
	default:
		conds := make([]string, 0, ranks.Size())
		for _, m := range ranks.Members() {
			conds = append(conds, fmt.Sprintf("me == %d", m))
		}
		g.line("if %s {", strings.Join(conds, " || "))
	}
	g.indent++
	return true
}

func (g *GoGenerator) unguard(owed bool) {
	if owed {
		g.indent--
		g.line("}")
	}
}

// peerExpr renders the world-rank peer of a pt2pt leaf as a Go expression
// in terms of the current rank variable "me".
func (g *GoGenerator) peerExpr(r *trace.RSD) string {
	world := len(g.t.CommGroup(r.CommID)) == g.t.N
	switch {
	case r.Peer.Kind == trace.ParamAbs:
		// An absolute peer is the same whichever participant asks.
		return fmt.Sprint(r.WorldPeerFor(0, g.t))
	case r.Peer.Kind == trace.ParamRel && world:
		return fmt.Sprintf("(me + %d) %% %d", r.Peer.Value, g.t.N)
	case r.Peer.Kind == trace.ParamXor && world:
		return fmt.Sprintf("me ^ %d", r.Peer.Value)
	}
	// Irregular or sub-communicator peers: emit a lookup table.
	pairs := make([]string, 0, r.Ranks.Size())
	for _, w := range r.Ranks.Members() {
		pairs = append(pairs, fmt.Sprintf("%d: %d", w, r.WorldPeerFor(w, g.t)))
	}
	return fmt.Sprintf("map[int]int{%s}[me]", strings.Join(pairs, ", "))
}

// Event implements CodeGenerator.
func (g *GoGenerator) Event(r *trace.RSD) error {
	if mean := r.ComputeMean(); mean >= computeFloorUS {
		owed := g.guard(r.Ranks)
		g.line("r.Compute(%.3f)", mean)
		g.unguard(owed)
	}
	switch r.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpCommSplit, mpi.OpCommDup:
		return nil // handled by the runtime / out of scope for this backend
	case mpi.OpSend:
		owed := g.guard(r.Ranks)
		g.line("r.Send(c, %s, %d, %d)", g.peerExpr(r), r.Tag, r.Size)
		g.unguard(owed)
	case mpi.OpIsend:
		owed := g.guard(r.Ranks)
		g.line("reqs = append(reqs, r.Isend(c, %s, %d, %d))", g.peerExpr(r), r.Tag, r.Size)
		g.unguard(owed)
	case mpi.OpRecv:
		if r.Peer.Kind == trace.ParamAny {
			return fmt.Errorf("core: unresolved wildcard at site %x", r.Site)
		}
		owed := g.guard(r.Ranks)
		g.line("r.Recv(c, %s, %d, %d)", g.peerExpr(r), r.Tag, r.Size)
		g.unguard(owed)
	case mpi.OpIrecv:
		if r.Peer.Kind == trace.ParamAny {
			return fmt.Errorf("core: unresolved wildcard at site %x", r.Site)
		}
		owed := g.guard(r.Ranks)
		g.line("reqs = append(reqs, r.Irecv(c, %s, %d, %d))", g.peerExpr(r), r.Tag, r.Size)
		g.unguard(owed)
	case mpi.OpWait, mpi.OpWaitall:
		owed := g.guard(r.Ranks)
		g.line("r.Waitall(reqs...)")
		g.line("reqs = reqs[:0]")
		g.unguard(owed)
	case mpi.OpBarrier:
		owed := g.guard(r.Ranks)
		g.line("r.Barrier(c)")
		g.unguard(owed)
	case mpi.OpBcast:
		owed := g.guard(r.Ranks)
		g.line("r.Bcast(c, %d, %d)", r.WorldRoot(g.t), r.Size)
		g.unguard(owed)
	case mpi.OpReduce, mpi.OpGather, mpi.OpGatherv:
		owed := g.guard(r.Ranks)
		g.line("r.Reduce(c, %d, %d)", r.WorldRoot(g.t), r.MeanCount())
		g.unguard(owed)
	case mpi.OpAllreduce:
		owed := g.guard(r.Ranks)
		g.line("r.Allreduce(c, %d)", r.Size)
		g.unguard(owed)
	case mpi.OpAllgather, mpi.OpAllgatherv:
		owed := g.guard(r.Ranks)
		g.line("r.Allgather(c, %d)", r.MeanCount())
		g.unguard(owed)
	case mpi.OpScatter, mpi.OpScatterv:
		owed := g.guard(r.Ranks)
		g.line("r.Scatter(c, %d, %d)", r.WorldRoot(g.t), r.MeanCount())
		g.unguard(owed)
	case mpi.OpAlltoall:
		owed := g.guard(r.Ranks)
		g.line("r.Alltoall(c, %d)", r.Size)
		g.unguard(owed)
	case mpi.OpAlltoallv:
		owed := g.guard(r.Ranks)
		g.line("r.Alltoall(c, %d)", r.PerPeerSize())
		g.unguard(owed)
	case mpi.OpReduceScatter:
		owed := g.guard(r.Ranks)
		group := reduceScatterGroup(g.t, r)
		for i, world := range group {
			g.line("r.Reduce(c, %d, %d)", world, r.SegmentSize(i, len(group)))
		}
		g.unguard(owed)
	default:
		return fmt.Errorf("core: no Go mapping for %v", r.Op)
	}
	return nil
}

// Source finalizes and returns the complete Go program.
func (g *GoGenerator) Source() (string, error) {
	if g.err != nil {
		return "", g.err
	}
	var sb strings.Builder
	sb.Grow(1024 + g.body.Len())
	sb.WriteString(`// Code generated by scalatrace-go (Go backend); a standalone benchmark
// reproducing the traced application's communication on the simulated MPI
// runtime.
package main

import (
	"fmt"
	"log"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

func main() {
`)
	fmt.Fprintf(&sb, "\tconst numTasks = %d\n", g.t.N)
	sb.WriteString(`	res, err := mpi.Run(numTasks, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		me := r.Rank()
		_ = me
		c := r.World()
		var reqs []*mpi.Request
		_ = reqs
`)
	sb.WriteString(g.body.String())
	sb.WriteString(`	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total virtual time: %.3f s\n", res.ElapsedUS/1e6)
}
`)
	return sb.String(), nil
}

// GenerateGo runs the full pipeline with the Go backend: resolve, align,
// traverse, emit.
func GenerateGo(t *trace.Trace, opts *Options) (string, error) {
	if opts == nil {
		opts = &Options{}
	}
	prepared, err := Prepare(t, opts)
	if err != nil {
		return "", err
	}
	g := NewGoGenerator()
	if err := Traverse(prepared, g); err != nil {
		return "", err
	}
	return g.Source()
}
