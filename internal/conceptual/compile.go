package conceptual

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// This file holds what a program resolves for one task count ahead of
// execution or printing: the communicator plan and the collective decision
// that lowering (cursor.go), GenerateC and GenerateGo all read, and the
// per-task tables the cursor instructions index (membership masks, peer
// ranks).

// commRef names the communicator a collective statement uses: world (-1) or
// an index into the startup communicator plan.
type commRef int

const worldRef commRef = -1

// comms is a program's communicator plan for one task count: the
// sub-communicators every task creates at startup, one per task group other
// than every task that a collective statement runs over, ordered by the
// groups' canonical text.
type comms struct {
	n     int
	plans []taskset.Set
	idx   map[string]int // canonical text of a group -> its plan position
}

// planComms plans the communicators of stmts on n tasks.
func planComms(stmts []Stmt, n int) *comms {
	seen := map[string]taskset.Set{}
	eachCollective(stmts, func(s Stmt) {
		srcs, dsts := sides(s)
		if u := srcs.Set(n).Union(dsts.Set(n)); u.Size() != n && !u.IsEmpty() {
			seen[u.String()] = u
		}
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := &comms{n: n, plans: make([]taskset.Set, len(keys)), idx: make(map[string]int, len(keys))}
	for i, k := range keys {
		c.plans[i], c.idx[k] = seen[k], i
	}
	return c
}

// eachCollective calls f on every SYNCHRONIZE, REDUCE and MULTICAST of
// stmts, loop bodies included.
func eachCollective(stmts []Stmt, f func(Stmt)) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *LoopStmt:
			eachCollective(x.Body, f)
		case *SyncStmt, *ReduceStmt, *MulticastStmt:
			f(x)
		}
	}
}

// sides returns a collective statement's sources and destinations; a
// SYNCHRONIZE's tasks are both.
func sides(s Stmt) (srcs, dsts TaskSel) {
	switch x := s.(type) {
	case *SyncStmt:
		return x.Who, x.Who
	case *ReduceStmt:
		return x.Srcs, x.Dsts
	case *MulticastStmt:
		return x.Srcs, x.Dsts
	}
	return TaskSel{}, TaskSel{}
}

// renderTasks is the task count a printer renders p for: its own, or for a
// program that fixes none, the fewest tasks that hold every task its
// collectives name, which is all the communicator plan depends on. (A
// predicate's fields that its kind does not use are zero.)
func renderTasks(p *Program) int {
	if p.NumTasks > 0 {
		return p.NumTasks
	}
	n := 1
	eachCollective(p.Stmts, func(s Stmt) {
		srcs, dsts := sides(s)
		for _, sel := range []TaskSel{srcs, dsts} {
			n = max(n, sel.Value+1, sel.Hi+1, sel.Offset+1)
			for _, t := range sel.Enum {
				n = max(n, t+1)
			}
		}
	})
	return n
}

// collective is how a SYNCHRONIZE, REDUCE or MULTICAST runs.
type collective struct {
	op   mpi.Op  // OpBarrier, OpAllreduce, OpReduce, OpBcast or OpAlltoall
	who  TaskSel // the tasks taking part
	comm commRef // the communicator they meet on
	size int
	// root is OpReduce's and OpBcast's root, communicator-relative, and
	// rootWorld the same task's world rank.
	root, rootWorld int
	// bcast: an OpReduce to several tasks, which a broadcast from root follows.
	bcast bool
}

// collective decides a SYNCHRONIZE, REDUCE or MULTICAST statement on the
// communicator of its tasks: the world when they are every task, else the
// startup split planned for them. A SYNCHRONIZE is a barrier; a REDUCE with
// sources equal to destinations is an allreduce, to one destination a reduce
// rooted there, to several a reduce rooted at the least of them followed by a
// broadcast among all; a MULTICAST from one source is a broadcast, from
// several a many-to-many exchange (Table 1's Alltoall family). It is the one
// decision lowering and both source printers read.
func (c *comms) collective(s Stmt) collective {
	srcSel, dstSel := sides(s)
	srcs, dsts := srcSel.Set(c.n), dstSel.Set(c.n)
	union, same := srcs.Union(dsts), srcs.Equal(dsts)
	k := collective{who: srcSel, comm: worldRef}
	if i, ok := c.idx[union.String()]; ok {
		k.comm = commRef(i)
	}
	if !same {
		k.who = union.Describe(c.n)
	}
	var rooted taskset.Set // the tasks whose least is the root
	switch x := s.(type) {
	case *SyncStmt:
		k.op = mpi.OpBarrier
	case *ReduceStmt:
		k.op, k.size = mpi.OpAllreduce, x.Size
		if !same {
			k.op, k.bcast, rooted = mpi.OpReduce, dsts.Size() > 1, dsts
		}
	case *MulticastStmt:
		k.op, k.size = mpi.OpAlltoall, x.Size
		if srcs.Size() == 1 {
			k.op, rooted = mpi.OpBcast, srcs
		}
	}
	if !rooted.IsEmpty() {
		// The world, and a planned communicator, list their tasks in world
		// order.
		k.rootWorld = rooted.Min()
		k.root, _ = union.IndexOf(k.rootWorld)
	}
	return k
}

type compiler struct {
	*comms
	sites map[Stmt]siteInfo // deterministic call sites to stamp per statement
	// masks and peerTabs hold the per-task tables built so far, so that equal
	// selectors, task sets and rank expressions of a program share one: what
	// lowering allocates is O(statements + distinct tables x tasks).
	masks    map[string][]bool // selector spelling or task-set string -> mask
	peerTabs map[RankExpr][]int
	key      *writer // scratch for a selector's spelling
	out      *cursorProgram
}

// sharedMask returns the mask registered under key, and whether it is new:
// all false, for the caller to fill in.
func (c *compiler) sharedMask(key []byte) (m []bool, fresh bool) {
	if m, ok := c.masks[string(key)]; ok {
		return m, false
	}
	m = make([]bool, c.n)
	c.masks[string(key)] = m
	return m, true
}

// mask precomputes the selector's membership as a dense mask; nil stands for
// every task. An enumeration is marked member by member — evaluating it per
// task, here or per event, would cost tasks x members.
func (c *compiler) mask(sel TaskSel) []bool {
	if sel.Kind == SelAll {
		return nil
	}
	c.key.buf = c.key.buf[:0]
	m, fresh := c.sharedMask(c.key.Cond(sel).buf)
	if !fresh {
		return m
	}
	if sel.Kind != SelEnum {
		for t := range m {
			m[t] = sel.Contains(t, c.n)
		}
	}
	for _, t := range sel.Enum {
		if t >= 0 && t < c.n {
			m[t] = true
		}
	}
	return m
}

// setMask precomputes as a dense mask the tasks whose membership in a
// concrete set is in (the set or its complement); nil stands for every task.
func (c *compiler) setMask(s taskset.Set, in bool) []bool {
	if in && s.Size() == c.n {
		return nil
	}
	key := "!" + s.String()
	if in {
		key = key[1:]
	}
	m, fresh := c.sharedMask([]byte(key))
	if fresh {
		for t := range m {
			m[t] = s.Contains(t) == in
		}
	}
	return m
}

// peers precomputes a rank expression for every executing task.
func (c *compiler) peers(e RankExpr) []int {
	out, ok := c.peerTabs[e]
	if !ok {
		out = make([]int, c.n)
		for t := range out {
			out[t] = e.Eval(t, c.n)
		}
		c.peerTabs[e] = out
	}
	return out
}
