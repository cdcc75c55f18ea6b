package core

import (
	"fmt"

	"repro/internal/conceptual"
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
	t    *trace.Trace
	w    *conceptual.Writer
	done bool // the epilogue is written
}

// NewGoGenerator returns a fresh Go-source backend.
func NewGoGenerator() *GoGenerator { return &GoGenerator{} }

// Begin implements CodeGenerator.
func (g *GoGenerator) Begin(t *trace.Trace) {
	g.t = t
	// The prologue, then 70-530 bytes of Go per trace node, typically under
	// 200; the rank body sits two levels deep.
	g.w = conceptual.NewWriter(conceptual.Go, t.N, 2, 1024+256*t.NodeCount())
	g.w.S(`// Code generated by scalatrace-go (Go backend); a standalone benchmark
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
	const numTasks = `).Int(t.N).S(`
	res, err := mpi.Run(numTasks, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		me := r.Rank()
		_ = me
		c := r.World()
		var reqs []*mpi.Request
		_ = reqs
`)
}

// StartLoop implements CodeGenerator.
func (g *GoGenerator) StartLoop(iters int) { g.w.OpenLoop(iters) }

// EndLoop implements CodeGenerator.
func (g *GoGenerator) EndLoop() { g.w.CloseLoop().End() }

// peer writes the world-rank peer of a pt2pt leaf as a Go expression in terms
// of the current rank variable "me".
func (g *GoGenerator) peer(r *trace.RSD) {
	world := len(g.t.CommGroup(r.CommID)) == g.t.N
	switch {
	case r.Peer.Kind == trace.ParamAbs:
		// An absolute peer is the same whichever participant asks.
		g.w.Rank(conceptual.AbsRank(r.WorldPeerFor(0, g.t)))
	case r.Peer.Kind == trace.ParamRel && world:
		g.w.Rank(conceptual.RelRank(r.Peer.Value))
	case r.Peer.Kind == trace.ParamXor && world:
		g.w.S("me ^ ").Int(r.Peer.Value)
	default:
		// Irregular or sub-communicator peers: emit a lookup table.
		g.w.S("map[int]int{")
		for i, w := range r.Ranks.Members() {
			if i > 0 {
				g.w.S(", ")
			}
			g.w.Int(w).S(": ").Int(r.WorldPeerFor(w, g.t))
		}
		g.w.S("}[me]")
	}
}

// p2p writes a point-to-point call: open, then peer, tag and size, then close.
func (g *GoGenerator) p2p(who taskset.Predicate, r *trace.RSD, open, close string) error {
	if r.Peer.Kind == trace.ParamAny {
		return fmt.Errorf("core: unresolved wildcard at site %x", r.Site)
	}
	g.w.Stmt(who).S(open)
	g.peer(r)
	g.w.S(", ").Int(r.Tag).S(", ").Int(r.Size).S(close).End()
	return nil
}

// call writes a runtime call on the world communicator: open (up to and
// including its first argument), the integer arguments, the closing bracket.
func (g *GoGenerator) call(who taskset.Predicate, open string, args ...int) {
	g.w.Stmt(who).S(open)
	for _, a := range args {
		g.w.S(", ").Int(a)
	}
	g.w.S(")").End()
}

// Event implements CodeGenerator.
func (g *GoGenerator) Event(r *trace.RSD) error {
	who := r.Ranks.Describe(g.t.N)
	if mean := r.ComputeMean(); mean >= computeFloorUS {
		g.w.Stmt(who).S("r.Compute(").Fixed3(mean, false).S(")").End()
	}
	switch r.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpCommSplit, mpi.OpCommDup:
		// handled by the runtime / out of scope for this backend
	case mpi.OpSend:
		return g.p2p(who, r, "r.Send(c, ", ")")
	case mpi.OpIsend:
		return g.p2p(who, r, "reqs = append(reqs, r.Isend(c, ", "))")
	case mpi.OpRecv:
		return g.p2p(who, r, "r.Recv(c, ", ")")
	case mpi.OpIrecv:
		return g.p2p(who, r, "reqs = append(reqs, r.Irecv(c, ", "))")
	case mpi.OpWait, mpi.OpWaitall:
		g.w.Stmt(who).S("r.Waitall(reqs...)").NL().S("reqs = reqs[:0]").End()
	case mpi.OpBarrier:
		g.call(who, "r.Barrier(c")
	case mpi.OpBcast:
		g.call(who, "r.Bcast(c", r.WorldRoot(g.t), r.Size)
	case mpi.OpReduce, mpi.OpGather, mpi.OpGatherv:
		g.call(who, "r.Reduce(c", r.WorldRoot(g.t), r.MeanCount())
	case mpi.OpAllreduce:
		g.call(who, "r.Allreduce(c", r.Size)
	case mpi.OpAllgather, mpi.OpAllgatherv:
		g.call(who, "r.Allgather(c", r.MeanCount())
	case mpi.OpScatter, mpi.OpScatterv:
		g.call(who, "r.Scatter(c", r.WorldRoot(g.t), r.MeanCount())
	case mpi.OpAlltoall:
		g.call(who, "r.Alltoall(c", r.Size)
	case mpi.OpAlltoallv:
		g.call(who, "r.Alltoall(c", r.PerPeerSize())
	case mpi.OpReduceScatter:
		// Table 1: one REDUCE per communicator member, rooted at it.
		group := g.t.CommGroup(r.CommID)
		g.w.Stmt(who)
		for i, world := range group {
			if i > 0 {
				g.w.NL()
			}
			g.w.S("r.Reduce(c, ").Int(world).S(", ").Int(r.SegmentSize(i, len(group))).S(")")
		}
		g.w.End()
	default:
		return fmt.Errorf("core: no Go mapping for %v", r.Op)
	}
	return nil
}

// Source finalizes and returns the complete Go program.
func (g *GoGenerator) Source() (string, error) {
	if !g.done {
		g.done = true
		g.w.S(`	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total virtual time: %.3f s\n", res.ElapsedUS/1e6)
}
`)
	}
	return g.w.String(), nil
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
