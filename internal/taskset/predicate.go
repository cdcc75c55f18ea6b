package taskset

import "slices"

// Predicate names a group of tasks by rule rather than by run list: every
// task, one task, a contiguous range, a residue class, or an enumeration. It
// is the generators' one definition of "which tasks": Describe derives it
// from a trace's rank set, the coNCePTuaL AST carries it as its task selector
// (conceptual.TaskSel is this type), and each target language spells it
// through one dialect table (internal/conceptual/emit.go). A predicate is
// independent of the task count; the methods that enumerate take it.
type Predicate struct {
	Kind PredicateKind
	// Value is the singleton task (KindSingleton).
	Value int
	// Lo and Hi bound KindRange (inclusive).
	Lo, Hi int
	// Stride and Offset define KindStride: t mod Stride == Offset.
	Stride, Offset int
	// Enum lists the members of KindEnum.
	Enum []int
}

// PredicateKind enumerates the shapes Describe can produce.
type PredicateKind int

// Predicate kinds, from most to least specific.
const (
	KindAll       PredicateKind = iota // every task in 0..n-1
	KindSingleton                      // exactly one task
	KindRange                          // contiguous range lo..hi
	KindStride                         // t mod Stride == Offset within 0..n-1
	KindEnum                           // irregular: enumerate members
)

// Describe classifies the set relative to a world of n tasks so that a code
// generator can choose the most readable construct of its language.
func (s Set) Describe(n int) Predicate {
	if !s.IsEmpty() && s.Size() == n && s.Min() == 0 && s.Max() == n-1 {
		return Predicate{Kind: KindAll}
	}
	if s.Size() == 1 {
		return Predicate{Kind: KindSingleton, Value: s.Min()}
	}
	if len(s.runs) == 1 {
		r := s.runs[0]
		if r.Stride == 1 {
			return Predicate{Kind: KindRange, Lo: r.Start, Hi: r.Last()}
		}
		// A strided run covering the whole world modulo class.
		if r.Start < r.Stride && r.Last()+r.Stride > n-1 {
			return Predicate{Kind: KindStride, Stride: r.Stride, Offset: r.Start}
		}
	}
	return Predicate{Kind: KindEnum, Enum: s.Members()}
}

// Contains reports whether task t of an n-task execution satisfies p.
func (p Predicate) Contains(t, n int) bool {
	if t < 0 || t >= n {
		return false
	}
	switch p.Kind {
	case KindAll:
		return true
	case KindSingleton:
		return t == p.Value
	case KindRange:
		return t >= p.Lo && t <= p.Hi
	case KindStride:
		return p.Stride > 0 && t%p.Stride == p.Offset
	default:
		return slices.Contains(p.Enum, t)
	}
}

// Set returns the tasks of an n-task execution that satisfy p. Only an
// enumeration costs more than one run to build.
func (p Predicate) Set(n int) Set {
	switch p.Kind {
	case KindAll:
		return Range(0, n-1)
	case KindSingleton:
		return Predicate{Kind: KindRange, Lo: p.Value, Hi: p.Value}.Set(n)
	case KindRange:
		return Range(max(p.Lo, 0), min(p.Hi, n-1))
	case KindStride:
		if p.Stride <= 0 || p.Offset < 0 || p.Offset >= p.Stride || p.Offset >= n {
			return Set{}
		}
		return Strided(p.Offset, p.Stride, (n-1-p.Offset)/p.Stride+1)
	}
	var in []int
	for _, t := range p.Enum {
		if t >= 0 && t < n {
			in = append(in, t)
		}
	}
	return Of(in...)
}

// Equal reports whether two predicates are the same rule. (The fields a kind
// does not use are zero however a predicate is built.)
func (p Predicate) Equal(o Predicate) bool {
	return p.Kind == o.Kind && p.Value == o.Value && p.Lo == o.Lo && p.Hi == o.Hi &&
		p.Stride == o.Stride && p.Offset == o.Offset && slices.Equal(p.Enum, o.Enum)
}
