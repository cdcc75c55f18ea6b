package conceptual

import "repro/internal/taskset"

// This file holds what lowering a program for one task count resolves ahead
// of execution, so the cursor instructions (cursor.go) only index precomputed
// arrays: membership masks, per-task peer ranks, the communicator a
// collective uses and its root's communicator-relative rank.

// commRef names the communicator a collective statement uses: world (-1) or
// an index into the startup communicator plan.
type commRef int

const worldRef commRef = -1

type compiler struct {
	n       int
	planIdx map[string]int    // task-group key -> plan position
	sites   map[Stmt]siteInfo // deterministic call sites to stamp per statement
	// masks and peerTabs hold the per-task tables built so far, so that equal
	// selectors, task sets and rank expressions of a program share one: what
	// lowering allocates is O(statements + distinct tables x tasks).
	masks    map[string][]bool // selector spelling or task-set string -> mask
	peerTabs map[RankExpr][]int
	key      *Writer // scratch for a selector's spelling
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

// setMask precomputes a concrete set of the program's tasks as a dense mask;
// nil stands for every task.
func (c *compiler) setMask(s taskset.Set) []bool {
	if s.Size() == c.n {
		return nil
	}
	m, fresh := c.sharedMask([]byte(s.String()))
	if fresh {
		for _, t := range s.Members() {
			m[t] = true
		}
	}
	return m
}

// holds reports whether a mask of mask or setMask selects task t.
func holds(mask []bool, t int) bool { return mask == nil || mask[t] }

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

// commRefFor resolves the communicator covering the union of the given task
// sets: the world communicator when the union covers every task (or was
// never planned), the planned sub-communicator otherwise. It also returns the
// union itself for root computations.
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
