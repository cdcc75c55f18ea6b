// Package conceptual implements the reproduction's coNCePTuaL: a
// domain-specific language for expressing communication benchmarks with an
// English-like grammar (Pakin, TPDS 2007). The package provides the AST, a
// pretty-printer emitting the readable source form, a parser accepting that
// form back (so generated benchmarks can be edited and re-run), an
// interpreter that executes programs on the simulated MPI runtime — playing
// the role of the coNCePTuaL compiler's C+MPI backend — and a C+MPI source
// emitter for inspection.
package conceptual

import "repro/internal/taskset"

// Program is a complete coNCePTuaL benchmark.
type Program struct {
	// Comments are emitted at the top of the source, one per line.
	Comments []string
	// NumTasks is the task count the program was generated for. The
	// interpreter can run a program on any task count; NumTasks documents
	// the traced configuration and grounds "ALL TASKS" at parse time.
	NumTasks int
	Stmts    []Stmt
}

// Stmt is one coNCePTuaL statement.
type Stmt interface {
	stmt()
}

// TaskSel selects the tasks executing a statement: "ALL TASKS t", "TASK 3",
// or "TASKS t SUCH THAT <predicate>". It is the task predicate the generator
// derives from a trace's rank sets (taskset.Set.Describe); membership,
// enumeration and equality are defined there, once.
type TaskSel = taskset.Predicate

// Task-selector kinds.
const (
	SelAll    = taskset.KindAll
	SelOne    = taskset.KindSingleton
	SelRange  = taskset.KindRange
	SelStride = taskset.KindStride
	SelEnum   = taskset.KindEnum
)

// AllTasks selects every task.
var AllTasks = TaskSel{Kind: SelAll}

// OneTask selects a single task.
func OneTask(t int) TaskSel { return TaskSel{Kind: SelOne, Value: t} }

// RankKind classifies peer-rank expressions.
type RankKind int

const (
	// RankAbs is a literal task number ("TASK 3").
	RankAbs RankKind = iota
	// RankRel is an offset from the executing task, modulo the task count
	// ("TASK (t+1) MOD num_tasks").
	RankRel
)

// RankExpr is the peer of a send or receive.
type RankExpr struct {
	Kind  RankKind
	Value int
}

// AbsRank returns a literal peer expression.
func AbsRank(v int) RankExpr { return RankExpr{Kind: RankAbs, Value: v} }

// RelRank returns a self-relative peer expression.
func RelRank(off int) RankExpr { return RankExpr{Kind: RankRel, Value: off} }

// Eval computes the concrete peer for executing task t of n.
func (r RankExpr) Eval(t, n int) int {
	if r.Kind == RankAbs {
		return r.Value
	}
	if n <= 0 {
		return r.Value
	}
	v := (t + r.Value) % n
	if v < 0 {
		v += n
	}
	return v
}

// LoopStmt repeats its body: "FOR <Count> REPETITIONS { ... }".
type LoopStmt struct {
	Count int
	Body  []Stmt
}

// SendStmt sends a message: "<Who> [ASYNCHRONOUSLY] SEND A <Size> BYTE
// MESSAGE TO <Dest>".
type SendStmt struct {
	Who   TaskSel
	Async bool
	Size  int
	Dest  RankExpr
}

// RecvStmt posts an explicit receive: "<Who> [ASYNCHRONOUSLY] RECEIVE A
// <Size> BYTE MESSAGE FROM <Source>".
type RecvStmt struct {
	Who    TaskSel
	Async  bool
	Size   int
	Source RankExpr
}

// AwaitStmt completes outstanding asynchronous operations:
// "<Who> AWAIT COMPLETION".
type AwaitStmt struct {
	Who TaskSel
}

// SyncStmt is a barrier: "<Who> SYNCHRONIZE".
type SyncStmt struct {
	Who TaskSel
}

// ReduceStmt reduces data from Srcs to Dsts: "<Srcs> REDUCE A <Size> BYTE
// MESSAGE TO <Dsts>". Srcs == Dsts expresses an allreduce.
type ReduceStmt struct {
	Srcs TaskSel
	Dsts TaskSel
	Size int
}

// MulticastStmt fans data out from Srcs to Dsts: "<Srcs> MULTICAST A <Size>
// BYTE MESSAGE TO <Dsts>". Multiple sources express many-to-many patterns
// (Table 1's Alltoall substitution).
type MulticastStmt struct {
	Srcs TaskSel
	Dsts TaskSel
	Size int
}

// ComputeStmt spins for a duration: "<Who> COMPUTE FOR <USecs>
// MICROSECONDS".
type ComputeStmt struct {
	Who   TaskSel
	USecs float64
}

// ResetStmt resets the executing tasks' timers: "<Who> RESET THEIR
// COUNTERS".
type ResetStmt struct {
	Who TaskSel
}

// LogStmt records elapsed time: `<Who> LOG THE MEDIAN OF elapsed_usecs AS
// "<Label>"`.
type LogStmt struct {
	Who   TaskSel
	Label string
}

func (*LoopStmt) stmt()      {}
func (*SendStmt) stmt()      {}
func (*RecvStmt) stmt()      {}
func (*AwaitStmt) stmt()     {}
func (*SyncStmt) stmt()      {}
func (*ReduceStmt) stmt()    {}
func (*MulticastStmt) stmt() {}
func (*ComputeStmt) stmt()   {}
func (*ResetStmt) stmt()     {}
func (*LogStmt) stmt()       {}

// StmtCount returns the total number of statements, counting loop bodies
// once (the static program size — the paper's generated-code-size metric).
func (p *Program) StmtCount() int { return countStmts(p.Stmts) }

func countStmts(stmts []Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		if lp, ok := s.(*LoopStmt); ok {
			n += countStmts(lp.Body)
		}
	}
	return n
}
