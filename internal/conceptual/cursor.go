package conceptual

import (
	"hash/fnv"
	"strconv"
	"sync"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// ctrCursorPrograms counts programs lowered to the stackless cursor form.
var ctrCursorPrograms = telemetry.NewCounter("conceptual.cursor_programs")

// This file lowers a coNCePTuaL program to a flat instruction list that the
// event engine's stackless executor drives with no rank goroutines at all. A
// generated program is exactly the restricted shape the stackless
// representation requires — a pre-known sequence of MPI operations with
// static loops — so each task's execution state collapses to a program
// counter plus a loop-frame stack, resumable at every blocking point (match,
// credit stall, collective round) by the engine's cursor machinery. This is
// how Execute runs; the tree walk (WithTreeWalk) is the differential
// reference, and both produce bit-identical clocks, traces and logs.

// siteInfo carries a statement's deterministic call-site hashes: pri for the
// statement's own operation, sec for the second runtime call of a two-call
// lowering (the bcast leg of a general REDUCE).
type siteInfo struct {
	pri uint64
	sec uint64
}

func siteHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("conceptual/" + path))
	return h.Sum64()
}

// planSite is the call-site hash stamped on the i-th startup communicator
// split.
func planSite(i int) uint64 { return siteHash("plan/" + strconv.Itoa(i)) }

// stmtSites assigns every statement a call-site hash derived from its
// position in the program tree ("2/0" = first statement inside the loop that
// is the program's third statement). Both execution paths stamp these
// same hashes onto the runtime calls they issue, which is what makes traces
// and causal profiles bit-identical across representations: a stack walk
// would hash different frames in each path (and cost ~1us per operation).
func stmtSites(stmts []Stmt) map[Stmt]siteInfo {
	sites := make(map[Stmt]siteInfo)
	var visit func(ss []Stmt, prefix string)
	visit = func(ss []Stmt, prefix string) {
		for i, s := range ss {
			path := prefix + strconv.Itoa(i)
			sites[s] = siteInfo{pri: siteHash(path), sec: siteHash(path + "/b")}
			if l, ok := s.(*LoopStmt); ok {
				visit(l.Body, path+"/")
			}
		}
	}
	visit(stmts, "")
	return sites
}

// ciKind discriminates cursor instructions.
type ciKind uint8

const (
	// ciOp issues op (Peer overridden from peers[me] for point-to-point)
	// when the task is a member.
	ciOp ciKind = iota
	// ciLoop opens a static loop: push a frame of count iterations, or jump
	// past the matching ciEnd when count <= 0.
	ciLoop
	// ciEnd is the loop back-edge.
	ciEnd
	// ciReset snapshots the task clock (RESET statement).
	ciReset
	// ciLog appends a log entry (LOG statement).
	ciLog
)

// cursorInstr is one instruction of the lowered program. The list is shared
// read-only by every task's stream; all per-task state lives in the stream.
type cursorInstr struct {
	kind    ciKind
	members []bool     // executing tasks (ciOp/ciReset/ciLog); nil: every task
	op      mpi.RankOp // ciOp template; everything but Peer is task-invariant
	peers   []int      // per-task peer overriding op.Peer; nil for collectives
	count   int        // ciLoop trip count
	jump    int        // ciLoop: index past the matching ciEnd; ciEnd: body start
	label   string     // ciLog
}

// cursorPlan pairs a startup communicator plan with its membership mask.
type cursorPlan struct {
	mask []bool
	site uint64
}

// cursorProgram is a program lowered for one task count, shared by all tasks.
type cursorProgram struct {
	plans  []cursorPlan
	instrs []cursorInstr
}

// streamID maps a compile-time communicator reference to the stackless
// stream's communicator ID space: 0 is the world, plan i registers as i+1
// (the NewCommID its startup split carries).
func streamID(ref commRef) int {
	if ref == worldRef {
		return 0
	}
	return int(ref) + 1
}

// lowerCursor lowers a program to cursor instructions through compile.go's
// resolution helpers (membership masks, peer tables, communicator
// references, root ranks).
func lowerCursor(p *Program, n int, plans []commPlan, sites map[Stmt]siteInfo) *cursorProgram {
	defer telemetry.Region("conceptual.lower_cursor")()
	ctrCursorPrograms.Inc()
	c := &compiler{n: n, planIdx: make(map[string]int, len(plans)), sites: sites,
		masks: map[string][]bool{}, peerTabs: map[RankExpr][]int{}, key: NewWriter(Conceptual, n, 0, 64)}
	for i, pl := range plans {
		c.planIdx[pl.key] = i
	}
	cp := &cursorProgram{plans: make([]cursorPlan, len(plans))}
	for i, pl := range plans {
		cp.plans[i] = cursorPlan{mask: c.setMask(pl.set), site: planSite(i)}
	}
	cp.instrs = c.lowerStmts(p.Stmts, nil)
	return cp
}

func (c *compiler) lowerStmts(stmts []Stmt, out []cursorInstr) []cursorInstr {
	for _, s := range stmts {
		out = c.lowerStmt(s, out)
	}
	return out
}

func (c *compiler) lowerStmt(s Stmt, out []cursorInstr) []cursorInstr {
	site := c.sites[s].pri
	switch x := s.(type) {
	case *LoopStmt:
		head := len(out)
		out = append(out, cursorInstr{kind: ciLoop, count: x.Count})
		out = c.lowerStmts(x.Body, out)
		out = append(out, cursorInstr{kind: ciEnd, jump: head + 1})
		out[head].jump = len(out)
	case *SendStmt:
		op := mpi.OpSend
		if x.Async {
			op = mpi.OpIsend
		}
		out = append(out, cursorInstr{kind: ciOp, members: c.mask(x.Who),
			peers: c.peers(x.Dest), op: mpi.RankOp{Op: op, Site: site, Size: x.Size}})
	case *RecvStmt:
		op := mpi.OpRecv
		if x.Async {
			op = mpi.OpIrecv
		}
		out = append(out, cursorInstr{kind: ciOp, members: c.mask(x.Who),
			peers: c.peers(x.Source), op: mpi.RankOp{Op: op, Site: site, Size: x.Size}})
	case *AwaitStmt:
		// The stackless drain with nothing outstanding is a silent no-op,
		// mirroring the interpreter's len(outstanding) > 0 guard.
		out = append(out, cursorInstr{kind: ciOp, members: c.mask(x.Who),
			op: mpi.RankOp{Op: mpi.OpWaitall, Site: site}})
	case *SyncStmt:
		ref, _ := c.commRefFor(x.Who.Set(c.n))
		out = append(out, cursorInstr{kind: ciOp, members: c.mask(x.Who),
			op: mpi.RankOp{Op: mpi.OpBarrier, Site: site, CommID: streamID(ref)}})
	case *ReduceStmt:
		out = c.lowerReduce(x, out)
	case *MulticastStmt:
		out = c.lowerMulticast(x, out)
	case *ComputeStmt:
		// An OpInit leaf is the stackless compute-only operation: it advances
		// the clock and records nothing.
		out = append(out, cursorInstr{kind: ciOp, members: c.mask(x.Who),
			op: mpi.RankOp{Op: mpi.OpInit, ComputeUS: x.USecs}})
	case *ResetStmt:
		out = append(out, cursorInstr{kind: ciReset, members: c.mask(x.Who)})
	case *LogStmt:
		out = append(out, cursorInstr{kind: ciLog, members: c.mask(x.Who), label: x.Label})
	}
	// Unknown statements are inert, as in the tree walk.
	return out
}

// lowerReduce mirrors execReduce's three modes: sources equal to
// destinations is an allreduce, a singleton destination a rooted reduce,
// anything else a reduce followed by a multicast among the destinations.
func (c *compiler) lowerReduce(x *ReduceStmt, out []cursorInstr) []cursorInstr {
	srcs, dsts := x.Srcs.Set(c.n), x.Dsts.Set(c.n)
	ref, union := c.commRefFor(srcs, dsts)
	part := c.setMask(union)
	si := c.sites[x]
	id := streamID(ref)
	switch {
	case srcs.Equal(dsts):
		return append(out, cursorInstr{kind: ciOp, members: part,
			op: mpi.RankOp{Op: mpi.OpAllreduce, Site: si.pri, CommID: id, Size: x.Size}})
	case dsts.Size() == 1:
		root := rootRank(ref, union, dsts.Min())
		return append(out, cursorInstr{kind: ciOp, members: part,
			op: mpi.RankOp{Op: mpi.OpReduce, Site: si.pri, CommID: id, Size: x.Size, Root: root}})
	default:
		root := rootRank(ref, union, dsts.Min())
		return append(out,
			cursorInstr{kind: ciOp, members: part,
				op: mpi.RankOp{Op: mpi.OpReduce, Site: si.pri, CommID: id, Size: x.Size, Root: root}},
			cursorInstr{kind: ciOp, members: part,
				op: mpi.RankOp{Op: mpi.OpBcast, Site: si.sec, CommID: id, Size: x.Size, Root: root}})
	}
}

// lowerMulticast mirrors execMulticast's two modes: a singleton source is a
// broadcast, multiple sources a many-to-many exchange.
func (c *compiler) lowerMulticast(x *MulticastStmt, out []cursorInstr) []cursorInstr {
	srcs, dsts := x.Srcs.Set(c.n), x.Dsts.Set(c.n)
	ref, union := c.commRefFor(srcs, dsts)
	part := c.setMask(union)
	si := c.sites[x]
	id := streamID(ref)
	if srcs.Size() == 1 {
		root := rootRank(ref, union, srcs.Min())
		return append(out, cursorInstr{kind: ciOp, members: part,
			op: mpi.RankOp{Op: mpi.OpBcast, Site: si.pri, CommID: id, Size: x.Size, Root: root}})
	}
	return append(out, cursorInstr{kind: ciOp, members: part,
		op: mpi.RankOp{Op: mpi.OpAlltoall, Site: si.pri, CommID: id, Size: x.Size}})
}

// loopFrame is one live loop of a task's stream: the body's first
// instruction index and the remaining iterations.
type loopFrame struct {
	body int
	rem  int
}

// cursorStream feeds one task's operation sequence to the stackless
// executor. Next runs on the engine's goroutine between operations, so the
// clock it reads for RESET/LOG is the task's clock at exactly the program
// point where the tree walk reads it.
type cursorStream struct {
	prog    *cursorProgram
	me      int
	pi      int // next startup split to issue
	pc      int
	frames  []loopFrame
	resetAt float64
	mu      *sync.Mutex
	logs    *[]LogEntry
}

// Next implements mpi.OpStream.
func (s *cursorStream) Next(r *mpi.Rank, op *mpi.RankOp) bool {
	p := s.prog
	if s.pi < len(p.plans) {
		pl := p.plans[s.pi]
		id := s.pi + 1
		s.pi++
		color := -1 // not a member: participate in the split, mint nothing
		if holds(pl.mask, s.me) {
			color = 0
		}
		*op = mpi.RankOp{Op: mpi.OpCommSplit, Site: pl.site,
			SplitColor: color, SplitKey: s.me, NewCommID: id}
		return true
	}
	for s.pc < len(p.instrs) {
		in := &p.instrs[s.pc]
		switch in.kind {
		case ciLoop:
			if in.count <= 0 {
				s.pc = in.jump
				continue
			}
			s.frames = append(s.frames, loopFrame{body: s.pc + 1, rem: in.count})
			s.pc++
		case ciEnd:
			f := &s.frames[len(s.frames)-1]
			f.rem--
			if f.rem > 0 {
				s.pc = f.body
			} else {
				s.frames = s.frames[:len(s.frames)-1]
				s.pc++
			}
		case ciReset:
			if holds(in.members, s.me) {
				s.resetAt = r.Clock()
			}
			s.pc++
		case ciLog:
			if holds(in.members, s.me) {
				entry := LogEntry{Label: in.label, Task: s.me, Value: r.Clock() - s.resetAt}
				s.mu.Lock()
				*s.logs = append(*s.logs, entry)
				s.mu.Unlock()
			}
			s.pc++
		case ciOp:
			s.pc++
			if !holds(in.members, s.me) {
				continue
			}
			*op = in.op
			if in.peers != nil {
				op.Peer = in.peers[s.me]
			}
			return true
		}
	}
	return false
}
