// Package replay is the reproduction's ScalaReplay: it re-executes a
// compressed communication trace on the simulated MPI runtime, issuing the
// recorded operations with the recorded compute times. Section 5.2 of the
// paper replays both the original application's trace and the generated
// benchmark's trace to compare them free of spurious structural differences;
// Equivalent implements that comparison.
//
// A replayed rank is a flat, pre-known operation sequence, the shape the
// event engine's stackless representation wants. Replay lowers each group of
// ranks once per call to the program form a coNCePTuaL program also runs as
// (mpi.Program): op templates, both compute means and membership filled from
// the leaves, per-rank peers, v-collective contributions and split keys
// translated through Trace.CommRankOf into tables. Per event a rank's stream
// steps a program counter and copies a template; the requests the executor
// creates are recycled at each completed drain. Every re-issued operation
// carries the trace's recorded call site, so a replay under a Collector
// re-traces with the original sites.
package replay

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Replay executes the trace on n simulated ranks, each a stackless cursor on
// the event engine, and returns the runtime's result. Extra mpi options
// (tracers, profilers, timeouts, a pooled engine) may be supplied —
// replaying under a Collector yields a re-trace.
func Replay(t *trace.Trace, model *netmodel.Model, opts ...mpi.Option) (*mpi.Result, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("replay: trace has no ranks")
	}
	return mpi.RunStackless(t.N, model, Streams(t), opts...)
}

// Streams lowers every group of t (t.N > 0) once and returns each rank's
// operation stream: its group's program, run from its slot.
func Streams(t *trace.Trace) func(rank int) mpi.OpStream {
	progs := lower(t)
	return mpi.ProgramStreams(t.N, func(rank int) (*mpi.Program, int) {
		for i := range t.Groups {
			if slot, ok := t.Groups[i].Ranks.IndexOf(rank); ok {
				return &progs[i], slot
			}
		}
		return new(mpi.Program), 0 // a rank of no group issues nothing
	}, nil)
}

// lowerer compiles the groups of one trace to stackless programs. Masks and
// tables are indexed by slot and shared by content within a group: a group
// costs its nodes plus its distinct tables times its ranks.
type lowerer struct {
	t     *trace.Trace
	prog  *mpi.Program
	ranks []int // the group's ranks, ascending: slot -> world rank
	masks map[string][]bool
	tabs  map[string][]int
	key   []byte
	mask  []bool // scratch, indexed by slot
	vals  []int  // scratch, indexed by slot
}

// lower compiles every group of t into one instruction block: a leaf is one
// instruction, a loop its two brackets and its body.
func lower(t *trace.Trace) []mpi.Program {
	leaves := 0
	for _, g := range t.Groups {
		trace.Leaves(g.Seq, func(*trace.RSD) { leaves++ })
	}
	block := make([]mpi.Instr, 0, 2*t.NodeCount()-leaves)
	progs := make([]mpi.Program, len(t.Groups))
	l := &lowerer{t: t, mask: make([]bool, t.N), vals: make([]int, t.N)}
	for i := range t.Groups {
		if t.Groups[i].Ranks.Size() > t.N {
			continue // malformed: not every member is a rank
		}
		l.ranks = t.Groups[i].Ranks.Members()
		l.masks, l.tabs = map[string][]bool{}, map[string][]int{}
		l.prog = &progs[i]
		l.prog.Instrs = block
		l.seq(t.Groups[i].Seq)
		block = l.prog.Instrs[len(l.prog.Instrs):]
	}
	return progs
}

func (l *lowerer) seq(nodes []trace.Node) {
	for _, node := range nodes {
		switch x := node.(type) {
		case *trace.RSD:
			l.leaf(x)
		case *trace.Loop:
			if x.Iters > 0 { // a cursor never enters any other
				head := l.prog.OpenLoop(x.Iters, l.members(func(rank int) bool { return trace.ContainsRank(x, rank) }))
				l.seq(x.Body)
				l.prog.CloseLoop(head)
			}
		}
	}
}

// leaf lowers one RSD: the RankOp template and both compute means are filled
// once, and what differs per rank — peers, v-collective contributions, split
// keys — comes from a slot table.
func (l *lowerer) leaf(x *trace.RSD) {
	members := l.members(x.Ranks.Contains)
	in := mpi.Instr{Members: members, FirstUS: x.ComputeMeanAt(true), Op: mpi.RankOp{Op: x.Op,
		ComputeUS: x.ComputeMeanAt(false), Site: x.Site, CommID: x.CommID, Tag: x.Tag, Root: x.Root}}
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
