package conceptual

import (
	"bytes"

	"repro/internal/mpi"
)

// GenerateC emits ordinary C+MPI source code for the program, mirroring the
// coNCePTuaL compiler's C backend. The output is for inspection and
// portability documentation; execution in this reproduction goes through
// Execute. It creates and uses the communicators Execute does (see
// comms.collective). Only a program that logs declares reset_at, the timer
// its LOGs read, so C of any program compiles under -Wall -Werror.
func GenerateC(p *Program) string {
	cm := planComms(p.Stmts, renderTasks(p))
	logs := hasLog(p.Stmts)
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
static MPI_Request *reqs;
static int nreqs;

/* ncptl_request returns the next free request slot, growing reqs as needed. */
static inline MPI_Request *ncptl_request(void) {
  static int room;
  if (nreqs == room) {
    room = room ? 2 * room : 256;
    reqs = realloc(reqs, (size_t)room * sizeof *reqs);
    if (reqs == NULL) MPI_Abort(MPI_COMM_WORLD, 1);
  }
  return &reqs[nreqs++];
}

int main(int argc, char **argv) {
  int rank, num_tasks;
`)
	if logs {
		w.S("  double reset_at = 0.0;\n")
	}
	w.S(`  MPI_Init(&argc, &argv);
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
	if logs {
		w.S("  reset_at = MPI_Wtime();\n")
	}
	cStmts(w, cm, p.Stmts, logs)
	w.S(`  if (nreqs > 0) { MPI_Waitall(nreqs, reqs, MPI_STATUSES_IGNORE); nreqs = 0; }
  MPI_Finalize();
  return 0;
}
`)
	return w.String()
}

// hasLog reports whether any statement, loop bodies included, is a LOG.
func hasLog(stmts []Stmt) bool {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LogStmt:
			return true
		case *LoopStmt:
			if hasLog(x.Body) {
				return true
			}
		}
	}
	return false
}

// cStmts writes stmts as C; logs says whether the program declares reset_at,
// without which a RESET has no timer to restart.
func cStmts(w *writer, cm *comms, stmts []Stmt, logs bool) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			w.OpenLoop(x.Count)
			cStmts(w, cm, x.Body, logs)
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
			w.Stmt(x.Who).S("ncptl_compute_for(").cDouble(x.USecs).S(");").End()
		case *ResetStmt:
			if logs {
				w.Stmt(x.Who).S("reset_at = MPI_Wtime();").End()
			}
		case *LogStmt:
			w.Stmt(x.Who).S(`printf("%d %s %f\n", rank, `).cString(x.Label).S(", (MPI_Wtime() - reset_at) * 1e6);").End()
		}
	}
}

// cDouble appends v as Fixed3 does, spelled as a double literal: an integral
// value gains ".0", or past the widest integer type it would be an integer
// constant too large for its type.
func (w *writer) cDouble(v float64) *writer {
	start := len(w.buf)
	if !bytes.ContainsRune(w.Fixed3(v).buf[start:], '.') {
		w.S(".0")
	}
	return w
}

// cString appends s as a C string literal: printable ASCII as it is but for
// the escaped " \ and ? (which may start a trigraph), and every other byte as
// a three-digit octal escape, which unlike \x cannot run on into the
// characters after it.
func (w *writer) cString(s string) *writer {
	w.buf = append(w.buf, '"')
	for _, c := range []byte(s) {
		switch {
		case c == '"' || c == '\\' || c == '?':
			w.buf = append(w.buf, '\\', c)
		case c >= ' ' && c <= '~':
			w.buf = append(w.buf, c)
		default:
			w.buf = append(w.buf, '\\', '0'+c>>6, '0'+c>>3&7, '0'+c&7)
		}
	}
	w.buf = append(w.buf, '"')
	return w
}

// cBcast writes a collective's broadcast from its root.
func (w *writer) cBcast(k collective) *writer {
	return w.S("MPI_Bcast(msgbuf, ").Int(k.size).S(", MPI_BYTE, ").Int(k.root).S(", ").Comm(k.comm).S(");")
}

// cP2P writes one point-to-point call on msgbuf over MPI_COMM_WORLD, tag 0:
// icall with a request slot when async, else call with the arguments in tail.
func (w *writer) cP2P(who TaskSel, async bool, icall, call, tail string, size int, peer RankExpr) {
	if async {
		call, tail = icall, ", ncptl_request()"
	}
	w.Stmt(who).S(call).S("(msgbuf, ").Int(size).S(", MPI_BYTE, ").Rank(peer).S(", 0, MPI_COMM_WORLD").S(tail).S(");").End()
}
