package conceptual

import (
	"hash/fnv"
	"strconv"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// ctrCursorPrograms counts programs lowered to the stackless cursor form.
var ctrCursorPrograms = telemetry.NewCounter("conceptual.cursor_programs")

// This file lowers a coNCePTuaL program to the stackless program form
// (mpi.Program) that Execute runs with no rank goroutines at all: a generated
// program is exactly the restricted shape it requires, a pre-known sequence
// of MPI operations with static loops.

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
// is the program's third statement). Execution stamps these hashes onto the
// runtime calls it issues, so traces and causal profiles do not depend on the
// binary: a stack walk would hash this package's frames (and cost ~1us per
// operation).
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

// cursorProgram is a program lowered for one task count, shared by all
// tasks: the startup splits, then the statements. A mark instruction's Mark
// is 0 for RESET and i+1 for a LOG of labels[i].
type cursorProgram struct {
	mpi.Program
	labels []string
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

// lowerCursor lowers a program for cm's task count through compile.go's
// resolution helpers (the collective decision, membership masks, peer
// tables).
func lowerCursor(p *Program, cm *comms, sites map[Stmt]siteInfo) *cursorProgram {
	defer telemetry.Region("conceptual.lower_cursor")()
	ctrCursorPrograms.Inc()
	c := &compiler{comms: cm, sites: sites,
		masks: map[string][]bool{}, peerTabs: map[RankExpr][]int{}, key: newWriter(conceptualDialect, cm.n, 0, 64),
		out: &cursorProgram{Program: mpi.Program{Instrs: make([]mpi.Instr, 0, 2*len(cm.plans)+instrBound(p.Stmts))}}}
	// Every task takes part in every startup split, in plan order: members
	// with color 0, the others with MPI_UNDEFINED, all with key 0, so that a
	// new group lists its tasks in world order.
	for i, set := range cm.plans {
		split := mpi.RankOp{Op: mpi.OpCommSplit, Site: planSite(i), NewCommID: i + 1}
		c.op(c.setMask(set, true), split, nil)
		split.SplitColor = -1
		c.op(c.setMask(set, false), split, nil)
	}
	c.lowerStmts(p.Stmts)
	return c.out
}

// instrBound bounds the instructions lowerStmts makes of stmts, so the list is
// allocated once: a loop is its two brackets and its body, a REDUCE to other
// tasks than its sources at most a reduce and a broadcast, anything else one
// instruction or none.
func instrBound(stmts []Stmt) int {
	n := len(stmts)
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			n += 1 + instrBound(x.Body)
		case *ReduceStmt:
			if !x.Srcs.Equal(x.Dsts) {
				n++
			}
		}
	}
	return n
}

func (c *compiler) lowerStmts(stmts []Stmt) {
	for _, s := range stmts {
		c.lowerStmt(s)
	}
}

// op appends an operation instruction; peers, when non-nil, is its Peer per task.
func (c *compiler) op(members []bool, op mpi.RankOp, peers []int) {
	c.out.Instrs = append(c.out.Instrs, mpi.Instr{Members: members, Op: op, FirstUS: op.ComputeUS, Vals: peers})
}

func (c *compiler) lowerStmt(s Stmt) {
	site := c.sites[s].pri
	switch x := s.(type) {
	case *LoopStmt:
		if x.Count > 0 {
			head := c.out.OpenLoop(x.Count, nil)
			c.lowerStmts(x.Body)
			c.out.CloseLoop(head)
		}
	case *SendStmt:
		op := mpi.OpSend
		if x.Async {
			op = mpi.OpIsend
		}
		c.op(c.mask(x.Who), mpi.RankOp{Op: op, Site: site, Size: x.Size}, c.peers(x.Dest))
	case *RecvStmt:
		op := mpi.OpRecv
		if x.Async {
			op = mpi.OpIrecv
		}
		c.op(c.mask(x.Who), mpi.RankOp{Op: op, Site: site, Size: x.Size}, c.peers(x.Source))
	case *AwaitStmt:
		// The stackless drain with nothing outstanding is a silent no-op.
		c.op(c.mask(x.Who), mpi.RankOp{Op: mpi.OpWaitall, Site: site}, nil)
	case *SyncStmt, *ReduceStmt, *MulticastStmt:
		k := c.collective(s)
		op := mpi.RankOp{Op: k.op, Site: site, CommID: streamID(k.comm), Size: k.size, Root: k.root}
		members := c.mask(k.who)
		c.op(members, op, nil)
		if k.bcast {
			op.Op, op.Site = mpi.OpBcast, c.sites[s].sec
			c.op(members, op, nil)
		}
	case *ComputeStmt:
		// An OpInit leaf is the stackless compute-only operation: it advances
		// the clock and records nothing.
		c.op(c.mask(x.Who), mpi.RankOp{Op: mpi.OpInit, ComputeUS: x.USecs}, nil)
	case *ResetStmt:
		c.out.Instrs = append(c.out.Instrs, mpi.Instr{Kind: mpi.InstrMark, Members: c.mask(x.Who)})
	case *LogStmt:
		c.out.labels = append(c.out.labels, x.Label)
		c.out.Instrs = append(c.out.Instrs, mpi.Instr{Kind: mpi.InstrMark, Members: c.mask(x.Who), Mark: len(c.out.labels)})
	}
	// Unknown statements are inert.
}
