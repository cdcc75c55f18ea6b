package trace

import (
	"encoding/binary"
	"slices"

	"repro/internal/mpi"
)

// Lowered is a trace compiled to the stackless program form a coNCePTuaL
// program also runs as (mpi.Program), one program per group: op templates,
// both compute means and membership filled from the leaves, per-rank peers,
// v-collective contributions and split keys translated through
// Trace.CommRankOf into tables. Every per-rank walk of the trace — replay,
// Algorithms 1 and 2, Pinned, the MP-net lowering — runs these programs on
// the one interpreter, so which compute sample an event replays (the
// first-iteration pool or the steady state) is decided in one place.
type Lowered struct {
	t     *Trace
	progs []mpi.Program
	// leaves[g][i] is the leaf instruction i of program g came from; nil for
	// a loop bracket.
	leaves [][]*RSD
}

// lowerer compiles the groups of one trace to stackless programs. Masks and
// tables are indexed by slot and shared by content within a group: a group
// costs its nodes plus its distinct tables times its ranks.
type lowerer struct {
	t      *Trace
	prog   *mpi.Program
	leaves []*RSD
	ranks  []int // the group's ranks, ascending: slot -> world rank
	masks  map[string][]bool
	tabs   map[string][]int
	key    []byte
	mask   []bool // scratch, indexed by slot
	vals   []int  // scratch, indexed by slot
}

// Lower compiles every group of t into one instruction block: a leaf is one
// instruction, a loop its two brackets and its body.
func Lower(t *Trace) *Lowered {
	leaves := 0
	for _, g := range t.Groups {
		Leaves(g.Seq, func(*RSD) { leaves++ })
	}
	size := 2*t.NodeCount() - leaves
	block, from := make([]mpi.Instr, 0, size), make([]*RSD, 0, size)
	low := &Lowered{t: t, progs: make([]mpi.Program, len(t.Groups)), leaves: make([][]*RSD, len(t.Groups))}
	l := &lowerer{t: t, mask: make([]bool, t.N), vals: make([]int, t.N)}
	for i := range t.Groups {
		l.ranks = t.Groups[i].Ranks.Members()
		l.masks, l.tabs = map[string][]bool{}, map[string][]int{}
		l.prog, l.leaves = &low.progs[i], from
		l.prog.Instrs = block
		l.seq(t.Groups[i].Seq)
		low.leaves[i] = l.leaves
		block, from = l.prog.Instrs[len(l.prog.Instrs):], l.leaves[len(l.leaves):]
	}
	return low
}

// ProgramOf returns the program of rank's group and rank's slot in it.
func (low *Lowered) ProgramOf(rank int) (*mpi.Program, int) {
	g, slot := low.groupOf(rank)
	return &low.progs[g], slot
}

// groupOf returns the index of rank's program and rank's slot in it.
func (low *Lowered) groupOf(rank int) (int, int) {
	g := slices.IndexFunc(low.t.Groups, func(g Group) bool { return g.Ranks.Contains(rank) })
	slot, _ := low.t.Groups[g].Ranks.IndexOf(rank)
	return g, slot
}

func (l *lowerer) seq(nodes []Node) {
	for _, node := range nodes {
		switch x := node.(type) {
		case *RSD:
			l.leaf(x)
		case *Loop:
			if x.Iters > 0 { // no rank enters any other
				head := l.prog.OpenLoop(x.Iters, l.members(func(rank int) bool { return ContainsRank(x, rank) }))
				l.leaves = append(l.leaves, nil)
				l.seq(x.Body)
				l.prog.CloseLoop(head)
				l.leaves = append(l.leaves, nil)
			}
		}
	}
}

// leaf lowers one RSD: the RankOp template and both compute means are filled
// once, and what differs per rank — peers, v-collective contributions, split
// keys — comes from a slot table.
func (l *lowerer) leaf(x *RSD) {
	members := l.members(x.Ranks.Contains)
	in := mpi.Instr{Members: members, FirstUS: x.FirstComputeMean(), Op: mpi.RankOp{Op: x.Op,
		ComputeUS: x.ComputeMean(), Site: x.Site, CommID: x.CommID, Tag: x.Tag, Root: x.Root}}
	op := &in.Op
	switch x.Op {
	case mpi.OpInit, mpi.OpFinalize, mpi.OpWait, mpi.OpWaitall:
		// Compute (and, for the drains, the outstanding set) only.
	case mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv:
		op.Size = x.Size
		in.Vals, op.Peer = l.table(members, func(rank int) int { return x.PeerFor(rank, l.t) })
	case mpi.OpGatherv, mpi.OpAllgatherv:
		// These take the rank's contribution: its entry of Counts, if any.
		in.Vals, op.Size = l.table(members, func(rank int) int {
			if me, ok := l.t.CommRankOf(x.CommID, rank); ok && me < len(x.Counts) {
				return x.Counts[me]
			}
			return x.Size
		})
	case mpi.OpScatterv, mpi.OpAlltoallv, mpi.OpReduceScatter:
		op.Counts = x.Counts
	case mpi.OpCommSplit:
		// A new communicator's members share a color and are keyed by its
		// recorded order; a leaf that minted nothing is MPI_UNDEFINED.
		op.SplitColor, op.NewCommID = -1, x.NewCommID
		if x.NewCommID != 0 {
			op.SplitColor = x.NewCommID
			in.Vals, op.SplitKey = l.table(members, func(rank int) int {
				key, _ := l.t.CommRankOf(x.NewCommID, rank)
				return max(key, 0)
			})
		}
	case mpi.OpCommDup:
		op.NewCommID = x.NewCommID
	default:
		// Fixed-size collectives: Barrier, Bcast, Reduce, Allreduce,
		// Gather, Allgather, Scatter, Alltoall.
		op.Size = x.Size
	}
	l.prog.Instrs = append(l.prog.Instrs, in)
	l.leaves = append(l.leaves, x)
}

// members returns the group's mask of the slots whose rank is in, nil when
// every slot's is.
func (l *lowerer) members(in func(rank int) bool) []bool {
	l.key = l.key[:0]
	all := true
	for s, rank := range l.ranks {
		ok := in(rank)
		l.mask[s], all = ok, all && ok
		l.key = append(l.key, 0)
		if ok {
			l.key[s] = 1
		}
	}
	if all {
		return nil
	}
	return intern(l.masks, l.key, l.mask[:len(l.ranks)])
}

// table evaluates f at the rank of every member slot. When all members agree
// it returns no table and their value, for the template; otherwise the
// group's table of the values (non-members read 0) and 0.
func (l *lowerer) table(members []bool, f func(rank int) int) ([]int, int) {
	l.key = l.key[:0]
	same, uniform, seen := 0, true, false
	for s, rank := range l.ranks {
		v := 0
		if members == nil || members[s] {
			if v = f(rank); !seen {
				same, seen = v, true
			}
			uniform = uniform && v == same
		}
		l.vals[s] = v
		l.key = binary.AppendVarint(l.key, int64(v))
	}
	if uniform {
		return nil, same
	}
	return intern(l.tabs, l.key, l.vals[:len(l.ranks)]), 0
}

// intern returns the value registered under key, registering a copy of v
// when there is none.
func intern[T any](m map[string][]T, key []byte, v []T) []T {
	if s, ok := m[string(key)]; ok {
		return s
	}
	s := slices.Clone(v)
	m[string(key)] = s
	return s
}

// Cursor walks the events of one rank of a lowered trace — the paper's
// per-node "traversal context" used by Algorithms 1 and 2 — on the
// interpreter replay runs: its events, their order and their compute samples
// are the ones the rank replays.
type Cursor struct {
	rank   int
	walk   *mpi.Walk
	leaves []*RSD
	cur    *RSD
	op     mpi.RankOp
	index  int
}

// Cursor returns a cursor positioned at rank's first event.
func (low *Lowered) Cursor(rank int) *Cursor {
	g, slot := low.groupOf(rank)
	c := &Cursor{rank: rank, walk: low.progs[g].Walk(slot), leaves: low.leaves[g], index: -1}
	c.step()
	return c
}

// Rank returns the cursor's rank.
func (c *Cursor) Rank() int { return c.rank }

// Cur returns the RSD at the cursor, or nil when exhausted.
func (c *Cursor) Cur() *RSD { return c.cur }

// Done reports whether the cursor is past the last event.
func (c *Cursor) Done() bool { return c.cur == nil }

// Index returns the zero-based ordinal of the current event for this rank;
// past the last event, the rank's event count.
func (c *Cursor) Index() int { return c.index }

// ComputeUS returns the compute time the current event replays: its leaf's
// first-iteration mean in the first iteration of its innermost loop (or
// outside every loop), its steady-state mean otherwise.
func (c *Cursor) ComputeUS() float64 { return c.op.ComputeUS }

// Advance moves to the rank's next event.
func (c *Cursor) Advance() {
	if c.cur != nil {
		c.step()
	}
}

func (c *Cursor) step() {
	c.cur = nil
	c.index++
	if i := c.walk.Next(&c.op); i >= 0 {
		c.cur = c.leaves[i]
	}
}
