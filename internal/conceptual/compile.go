package conceptual

import "repro/internal/taskset"

// This file holds what lowering a program for one task count resolves ahead
// of execution, so the cursor instructions (cursor.go) only index precomputed
// arrays: membership masks, per-task peer ranks, the communicator a
// collective uses and its root's communicator-relative rank. The
// tree-walking interpreter in interp.go resolves the same things per
// statement execution and is the reference the differential tests compare
// against; both produce bit-identical virtual clocks because they issue the
// same runtime calls with the same arguments in the same order.

// commRef names the communicator a collective statement uses: world (-1) or
// an index into the startup communicator plan.
type commRef int

const worldRef commRef = -1

type compiler struct {
	n       int
	planIdx map[string]int    // task-group key -> plan position
	sites   map[Stmt]siteInfo // deterministic call sites to stamp per statement
}

// members precomputes the selector's membership as a dense mask.
func (c *compiler) members(sel TaskSel) []bool {
	m := make([]bool, c.n)
	for _, t := range sel.Members(c.n) {
		m[t] = true
	}
	return m
}

// peers precomputes a rank expression for every executing task.
func (c *compiler) peers(e RankExpr) []int {
	out := make([]int, c.n)
	for t := range out {
		out[t] = e.Eval(t, c.n)
	}
	return out
}

// maskOf precomputes a concrete task set as a dense mask.
func (c *compiler) maskOf(s taskset.Set) []bool {
	m := make([]bool, c.n)
	for _, t := range s.Members() {
		if t >= 0 && t < c.n {
			m[t] = true
		}
	}
	return m
}

// commRefFor resolves the communicator covering the union of the given task
// sets, mirroring taskState.commFor: the world communicator when the union
// covers every task (or was never planned), the planned sub-communicator
// otherwise. It also returns the union itself for root computations.
func (c *compiler) commRefFor(sets ...taskset.Set) (commRef, taskset.Set) {
	u := taskset.Empty
	for _, s := range sets {
		u = u.Union(s)
	}
	if u.Size() == c.n {
		return worldRef, u
	}
	if i, ok := c.planIdx[u.String()]; ok {
		return commRef(i), u
	}
	return worldRef, u
}

// rootRank precomputes the communicator-relative rank of world rank w inside
// the communicator ref resolves to. Planned communicators are created by
// CommSplit keyed on world rank, so their group is the union's members in
// ascending order; the world communicator numbers ranks identically.
func rootRank(ref commRef, union taskset.Set, w int) int {
	if ref == worldRef {
		return w
	}
	for i, m := range union.Members() {
		if m == w {
			return i
		}
	}
	return 0 // unreachable: the root is always a member of the union
}
