package conceptual

import (
	"math"

	"repro/internal/mpi"
)

// GenerateC emits ordinary C+MPI source code for the program, mirroring the
// coNCePTuaL compiler's C backend. The output is for inspection and
// portability documentation; execution in this reproduction goes through
// Execute. It creates and uses the communicators Execute does (see
// comms.collective).
func GenerateC(p *Program) string {
	cm := planComms(p.Stmts, renderTasks(p))
	// The prologue, then 100-290 bytes of C per statement.
	w := newWriter(cDialect, p.NumTasks, 0, 2048+256*p.StmtCount())
	w.S("/*\n * Generated by scalatrace-go (coNCePTuaL C backend).\n")
	for _, c := range p.Comments {
		w.S(" * ").S(c).End()
	}
	w.S(` */
#include <mpi.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static void ncptl_compute_for(double usecs) {
  double start = MPI_Wtime();
  while ((MPI_Wtime() - start) * 1e6 < usecs) /* spin */;
}

static char msgbuf[1 << 24];

int main(int argc, char **argv) {
  int rank, num_tasks;
  double reset_at = 0.0;
`)
	// A bound past the default's takes static storage, off the stack.
	if reqs := requests(p); reqs > minRequests {
		w.S("  static MPI_Request reqs[").Int(reqs).S("];\n")
	} else {
		w.S("  MPI_Request reqs[").Int(minRequests).S("];\n")
	}
	w.S(`  int nreqs = 0;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  MPI_Comm_size(MPI_COMM_WORLD, &num_tasks);
`)
	if p.NumTasks > 0 {
		w.S("  if (num_tasks != ").Int(p.NumTasks).S(") {\n")
		w.S(`    fprintf(stderr, "this benchmark was generated for `).Int(p.NumTasks).S(" tasks\\n\");\n")
		w.S("    MPI_Abort(MPI_COMM_WORLD, 1);\n  }\n")
	}
	w.depth = 1
	// Every task takes part in every split: members on colour 0.
	for i, set := range cm.plans {
		w.S("  MPI_Comm ").Comm(commRef(i)).S(";\n")
		w.S("  MPI_Comm_split(MPI_COMM_WORLD, ").Cond(set.Describe(cm.n)).S(" ? 0 : MPI_UNDEFINED, 0, &").Comm(commRef(i)).S(");\n")
	}
	w.S("  reset_at = MPI_Wtime();\n")
	cStmts(w, cm, p.Stmts)
	w.S(`  if (nreqs > 0) { MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0; }
  MPI_Finalize();
  return 0;
}
`)
	return w.String()
}

// minRequests is the least length of the generated request array.
const minRequests = 4096

// requests returns the length of the request array: the most asynchronous
// operations a task can have outstanding, and at least minRequests. Tasks are
// counted one by one only where the bound for any task exceeds that.
func requests(p *Program) int {
	_, reqs := outstanding(p.Stmts, -1, 0, 0)
	if reqs > minRequests && p.NumTasks > 0 {
		reqs = 0
		for task := range p.NumTasks {
			_, peak := outstanding(p.Stmts, task, p.NumTasks, 0)
			reqs = max(reqs, peak)
		}
	}
	return max(reqs, minRequests)
}

// outstanding returns how many asynchronous operations task, of tasks, has
// outstanding after stmts, entered with n, and the most it has at any point:
// loop counts multiply, and an AWAIT that selects the task completes them.
// Task -1 is any task of any count: every operation counts, and only an
// AWAIT of all tasks completes them. Both saturate at math.MaxInt32.
func outstanding(stmts []Stmt, task, tasks, n int) (end, peak int) {
	runs := func(who TaskSel) bool { return task < 0 || who.Contains(task, tasks) }
	peak = n
	for _, s := range stmts {
		switch x := s.(type) {
		case *SendStmt:
			if x.Async && runs(x.Who) {
				n = min(n+1, math.MaxInt32)
			}
		case *RecvStmt:
			if x.Async && runs(x.Who) {
				n = min(n+1, math.MaxInt32)
			}
		case *AwaitStmt:
			if x.Who.Kind == SelAll || task >= 0 && runs(x.Who) {
				n = 0
			}
		case *LoopStmt:
			if x.Count <= 0 {
				continue
			}
			end1, peak1 := outstanding(x.Body, task, tasks, n)
			if x.Count == 1 {
				n, peak = end1, max(peak, peak1)
				continue
			}
			// Each iteration after the second adds what the second did: d,
			// zero when the body completes everything.
			end2, peak2 := outstanding(x.Body, task, tasks, end1)
			d, more := end2-end1, x.Count-2
			grow := func(v int) int {
				if d > 0 && more > (math.MaxInt32-v)/d {
					return math.MaxInt32
				}
				return v + more*d
			}
			n, peak = grow(end2), max(peak, peak1, grow(peak2))
		}
		peak = max(peak, n)
	}
	return n, peak
}

func cStmts(w *writer, cm *comms, stmts []Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			w.OpenLoop(x.Count)
			cStmts(w, cm, x.Body)
			w.CloseLoop().End()
		case *SendStmt:
			w.cP2P(x.Who, x.Async, "MPI_Isend", "MPI_Send", "", x.Size, x.Dest)
		case *RecvStmt:
			w.cP2P(x.Who, x.Async, "MPI_Irecv", "MPI_Recv", ", MPI_STATUS_IGNORE", x.Size, x.Source)
		case *AwaitStmt:
			w.Stmt(x.Who).S("MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0;").End()
		case *SyncStmt, *ReduceStmt, *MulticastStmt:
			k := cm.collective(s)
			w.Stmt(k.who)
			switch k.op {
			case mpi.OpBarrier:
				w.S("MPI_Barrier(").Comm(k.comm).S("); /* over the selected tasks' communicator */")
			case mpi.OpAllreduce:
				w.S("MPI_Allreduce(MPI_IN_PLACE, msgbuf, ").Int(k.size).S(", MPI_BYTE, MPI_BOR, ").Comm(k.comm).S(");")
			case mpi.OpReduce:
				// Only the root may reduce in place.
				w.S("MPI_Reduce(").Cond(OneTask(k.rootWorld)).S(" ? MPI_IN_PLACE : msgbuf, msgbuf, ").Int(k.size).S(", MPI_BYTE, MPI_BOR, ").Int(k.root).S(", ").Comm(k.comm).S(");")
				if k.bcast {
					w.NL().cBcast(k)
				}
			case mpi.OpBcast:
				w.cBcast(k)
			default:
				// In place: the send and receive buffers must not alias.
				w.S("MPI_Alltoall(MPI_IN_PLACE, 0, MPI_BYTE, msgbuf, ").Int(k.size).S(", MPI_BYTE, ").Comm(k.comm).S(");")
			}
			w.End()
		case *ComputeStmt:
			w.Stmt(x.Who).S("ncptl_compute_for(").Fixed3(x.USecs).S(");").End()
		case *ResetStmt:
			w.Stmt(x.Who).S("reset_at = MPI_Wtime();").End()
		case *LogStmt:
			w.Stmt(x.Who).S(`printf("%d `).S(x.Label).S(` %f\n", rank, (MPI_Wtime() - reset_at) * 1e6);`).End()
		}
	}
}

// cBcast writes a collective's broadcast from its root.
func (w *writer) cBcast(k collective) *writer {
	return w.S("MPI_Bcast(msgbuf, ").Int(k.size).S(", MPI_BYTE, ").Int(k.root).S(", ").Comm(k.comm).S(");")
}

// cP2P writes one point-to-point call on msgbuf over MPI_COMM_WORLD, tag 0:
// icall with a request slot when async, else call with the arguments in tail.
func (w *writer) cP2P(who TaskSel, async bool, icall, call, tail string, size int, peer RankExpr) {
	if async {
		call, tail = icall, ", &reqs[nreqs++]"
	}
	w.Stmt(who).S(call).S("(msgbuf, ").Int(size).S(", MPI_BYTE, ").Rank(peer).S(", 0, MPI_COMM_WORLD").S(tail).S(");").End()
}
