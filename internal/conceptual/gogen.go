package conceptual

import "repro/internal/mpi"

// GenerateGo emits a standalone Go program that runs the program on this
// module's simulated MPI runtime over the BlueGene/L model, operation for
// operation as Execute does: the startup communicator splits, then every
// statement's calls on the communicator comms.collective decides, tag 0. It
// prints every task's final clock and LOG values in microseconds, spelled so
// that they parse back to the same float64. Comments are not printed.
func GenerateGo(p *Program) string {
	n := renderTasks(p)
	cm := planComms(p.Stmts, n)
	// The prologue and epilogue, then 30-150 bytes of Go per statement; the
	// task body sits two levels deep.
	w := newWriter(goDialect, n, 2, 2048+160*p.StmtCount())
	w.S(`// Code generated by scalatrace-go (Go backend); a standalone benchmark
// reproducing the traced application's communication on the simulated MPI
// runtime.
package main

import (
	"fmt"
	"log"
	"strconv"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

const numTasks = `).Int(n).S(`

// logged is one value a LOG statement recorded.
type logged struct {
	label string
	us    float64
}

var (
	resetAt [numTasks]float64  // each task's clock at its last RESET
	logs    [numTasks][]logged // each task's LOG values, in program order
)

func main() {
	res, err := mpi.Run(numTasks, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		me, world := r.Rank(), r.World()
		var reqs []*mpi.Request
		_, _, _ = me, world, reqs // not every program uses all three
`)
	for i, set := range cm.plans {
		w.indented().Comm(commRef(i)).S(" := split(r, world, ").Cond(set.Describe(n)).S(")").End()
	}
	goStmts(w, cm, p.Stmts)
	w.S(`	})
	if err != nil {
		log.Fatal(err)
	}
	for me, us := range res.PerRankUS {
		fmt.Println("clock", me, strconv.FormatFloat(us, 'g', -1, 64))
	}
	for me, l := range logs {
		for _, v := range l {
			fmt.Println("log", me, strconv.Quote(v.label), strconv.FormatFloat(v.us, 'g', -1, 64))
		}
	}
}

// split is MPI_Comm_split with the members on colour 0 and the others on -1
// (MPI_UNDEFINED), all with key 0, so that a group lists its tasks in world
// order.
func split(r *mpi.Rank, c *mpi.Comm, member bool) *mpi.Comm {
	if member {
		return r.CommSplit(c, 0, 0)
	}
	return r.CommSplit(c, -1, 0)
}

// await completes the task's outstanding requests; with none outstanding it
// makes no call.
func await(r *mpi.Rank, reqs []*mpi.Request) []*mpi.Request {
	if len(reqs) > 0 {
		r.Waitall(reqs...)
	}
	return reqs[:0]
}
`)
	return w.String()
}

func goStmts(w *writer, cm *comms, stmts []Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			w.OpenLoop(x.Count)
			goStmts(w, cm, x.Body)
			w.CloseLoop().End()
		case *SendStmt:
			w.goP2P(x.Who, x.Async, "reqs = append(reqs, r.Isend(", "r.Send(", x.Size, x.Dest)
		case *RecvStmt:
			w.goP2P(x.Who, x.Async, "reqs = append(reqs, r.Irecv(", "r.Recv(", x.Size, x.Source)
		case *AwaitStmt:
			w.Stmt(x.Who).S("reqs = await(r, reqs)").End()
		case *SyncStmt, *ReduceStmt, *MulticastStmt:
			k := cm.collective(s)
			w.Stmt(k.who).goCall(k.op, k)
			if k.bcast {
				w.NL().goCall(mpi.OpBcast, k)
			}
			w.End()
		case *ComputeStmt:
			w.Stmt(x.Who).S("r.Compute(").Float(x.USecs).S(")").End()
		case *ResetStmt:
			w.Stmt(x.Who).S("resetAt[me] = r.Clock()").End()
		case *LogStmt:
			w.Stmt(x.Who).S("logs[me] = append(logs[me], logged{").Quote(x.Label).S(", r.Clock() - resetAt[me]})").End()
		}
	}
}

// goCall writes the runtime call of a collective's op, which the runtime
// names as mpi.Op does: the communicator, a rooted op's root, and the size
// unless the op is a barrier.
func (w *writer) goCall(op mpi.Op, k collective) *writer {
	w.S("r.").S(op.String()).S("(").Comm(k.comm)
	if op == mpi.OpReduce || op == mpi.OpBcast {
		w.S(", ").Int(k.root)
	}
	if op != mpi.OpBarrier {
		w.S(", ").Int(k.size)
	}
	return w.S(")")
}

// goP2P writes one point-to-point call on the world communicator, tag 0:
// iopen's asynchronous call, its request kept for the next AWAIT, or open's
// blocking one.
func (w *writer) goP2P(who TaskSel, async bool, iopen, open string, size int, peer RankExpr) {
	tail := ")"
	if async {
		open, tail = iopen, "))"
	}
	w.Stmt(who).S(open).S("world, ").Rank(peer).S(", 0, ").Int(size).S(tail).End()
}
