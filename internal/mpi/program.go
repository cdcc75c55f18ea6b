package mpi

// This file is the stackless program form a replayed trace group and a
// coNCePTuaL program both lower to, and its one interpreter. What differs
// between ranks is resolved into masks and tables indexed by a rank's slot,
// its position among the ranks running the program.

// InstrKind discriminates the instructions of a Program.
type InstrKind uint8

const (
	InstrOp   InstrKind = iota // issue Op
	InstrLoop                  // open a loop of Count > 0 iterations
	InstrEnd                   // back-edge: to Jump while iterations remain
	InstrMark                  // hand Mark to the run's mark callback
)

// Instr is one instruction of a Program. A slot that is not a member skips
// it (and a loop's body).
type Instr struct {
	Kind    InstrKind
	Members []bool // nil: every slot
	// Op is InstrOp's template. FirstUS replaces its (steady-state) ComputeUS
	// while the innermost open loop is in its first iteration, or outside
	// every loop: ScalaTrace's first-iteration pool (Section 3.1).
	Op      RankOp
	FirstUS float64
	// Vals holds per slot the op's one rank-dependent parameter: SplitKey of
	// a CommSplit, Size of a Gatherv or Allgatherv, Peer otherwise.
	Vals []int
	// Count is a loop's trip count; Jump is InstrLoop's index past its
	// InstrEnd and InstrEnd's first body instruction.
	Count, Jump, Mark int
}

// Program is a lowered rank body; Depth is its deepest loop nesting.
type Program struct {
	Instrs      []Instr
	Depth, open int
}

// OpenLoop appends the head of a loop of count > 0 iterations and returns its
// index, for CloseLoop.
func (p *Program) OpenLoop(count int, members []bool) int {
	p.Instrs = append(p.Instrs, Instr{Kind: InstrLoop, Count: count, Members: members})
	p.open++
	p.Depth = max(p.Depth, p.open)
	return len(p.Instrs) - 1
}

// CloseLoop appends the back-edge of the loop opened at head.
func (p *Program) CloseLoop(head int) {
	p.Instrs = append(p.Instrs, Instr{Kind: InstrEnd, Count: p.Instrs[head].Count, Jump: head + 1})
	p.Instrs[head].Jump = len(p.Instrs)
	p.open--
}

// progStream is one rank's interpreter of a Program: its slot, the next
// instruction, and its open loops' iterations, run.frames[base:][:top].
type progStream struct {
	prog                *Program
	run                 *progRun
	slot, pc, base, top int32
}

// progRun is what a run's streams share.
type progRun struct {
	frames []int
	mark   func(r *Rank, mark int)
}

// Next implements OpStream. It reads r only to hand it to the mark callback.
func (s *progStream) Next(r *Rank, op *RankOp) bool {
	ins := s.prog.Instrs
	iters := s.run.frames[s.base:][:s.prog.Depth]
	for int(s.pc) < len(ins) {
		in := &ins[s.pc]
		s.pc++
		if in.Members != nil && !in.Members[s.slot] {
			if in.Kind == InstrLoop {
				s.pc = int32(in.Jump)
			}
			continue
		}
		switch in.Kind {
		case InstrLoop:
			iters[s.top] = 0
			s.top++
		case InstrEnd:
			if iters[s.top-1]++; iters[s.top-1] < in.Count {
				s.pc = int32(in.Jump)
			} else {
				s.top--
			}
		case InstrMark:
			s.run.mark(r, in.Mark)
		case InstrOp:
			*op = in.Op
			if s.top == 0 || iters[s.top-1] == 0 {
				op.ComputeUS = in.FirstUS
			}
			if in.Vals != nil {
				switch v := in.Vals[s.slot]; op.Op {
				case OpCommSplit:
					op.SplitKey = v
				case OpGatherv, OpAllgatherv:
					op.Size = v
				default:
					op.Peer = v
				}
			}
			return true
		}
	}
	return false
}

// Walk is one slot's stream of a Program outside a run, for walks that
// issue nothing. Its program has no marks.
type Walk struct{ progStream }

// Walk returns slot's walk of p, before its first operation.
func (p *Program) Walk(slot int) *Walk {
	return &Walk{progStream{prog: p, run: &progRun{frames: make([]int, p.Depth)}, slot: int32(slot)}}
}

// Next stores the walk's next operation in op and returns the index of its
// instruction, or -1 past the last.
func (w *Walk) Next(op *RankOp) int {
	if !w.progStream.Next(nil, op) {
		return -1
	}
	return int(w.pc) - 1
}

// ProgramStreams returns RunStackless's progFor for n > 0 ranks running
// lowered programs: progOf gives a rank's program and slot, and mark receives
// the InstrMarks. The streams and their loop frames are one allocation each,
// whatever n.
func ProgramStreams(n int, progOf func(rank int) (*Program, int), mark func(r *Rank, mark int)) func(rank int) OpStream {
	streams := make([]progStream, n)
	run := &progRun{mark: mark}
	depth := 0
	for i := range streams {
		p, slot := progOf(i)
		streams[i] = progStream{prog: p, run: run, slot: int32(slot), base: int32(depth)}
		depth += p.Depth
	}
	run.frames = make([]int, depth)
	return func(rank int) OpStream { return &streams[rank] }
}
