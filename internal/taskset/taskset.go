// Package taskset implements compact sets of MPI ranks ("tasks") as sorted
// lists of strided runs. ScalaTrace stores the participant list of a merged
// RSD this way so that trace size stays near-constant in the number of ranks,
// and coNCePTuaL addresses task groups with expressions such as
// "TASKS t SUCH THAT t MOD 3 = 0"; this package serves both needs.
package taskset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Run is an arithmetic progression of ranks: Start, Start+Stride, ...
// with Count elements. Stride is >= 1; a singleton has Count 1 (its stride
// is normalized to 1).
type Run struct {
	Start  int
	Stride int
	Count  int
}

// Last returns the largest rank in the run.
func (r Run) Last() int { return r.Start + (r.Count-1)*r.Stride }

// Contains reports whether rank is a member of the run.
func (r Run) Contains(rank int) bool {
	if rank < r.Start || rank > r.Last() {
		return false
	}
	return (rank-r.Start)%r.Stride == 0
}

func (r Run) String() string {
	switch {
	case r.Count == 1:
		return strconv.Itoa(r.Start)
	case r.Stride == 1:
		return fmt.Sprintf("%d:%d", r.Start, r.Last())
	default:
		return fmt.Sprintf("%d:%d:%d", r.Start, r.Last(), r.Stride)
	}
}

// Set is an immutable set of ranks held as disjoint, sorted runs: every
// run ends below the start of the next, so walking the runs visits the
// members in ascending order without expanding them. The zero value is the
// empty set, ready for use.
type Set struct {
	runs []Run
}

// Empty is the set with no members.
var Empty = Set{}

// Of builds a Set from arbitrary ranks (duplicates are removed).
func Of(ranks ...int) Set {
	switch len(ranks) {
	case 0:
		return Set{}
	case 1:
		return Set{runs: []Run{{Start: ranks[0], Stride: 1, Count: 1}}}
	}
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	uniq := sorted[:1]
	for _, r := range sorted[1:] {
		if r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	return fromSortedUnique(uniq)
}

// Range returns the set {lo, lo+1, ..., hi}. It returns the empty set when
// hi < lo.
func Range(lo, hi int) Set {
	if hi < lo {
		return Set{}
	}
	return Set{runs: []Run{{Start: lo, Stride: 1, Count: hi - lo + 1}}}
}

// Strided returns the set {start, start+stride, ...} with count members.
// Stride must be >= 1 and count >= 0.
func Strided(start, stride, count int) Set {
	if count <= 0 {
		return Set{}
	}
	if stride < 1 {
		panic("taskset: stride must be >= 1")
	}
	if count == 1 {
		stride = 1
	}
	return Set{runs: []Run{{Start: start, Stride: stride, Count: count}}}
}

// fromSortedUnique greedily packs a sorted, duplicate-free rank slice into
// maximal strided runs.
func fromSortedUnique(ranks []int) Set {
	var runs []Run
	i := 0
	for i < len(ranks) {
		if i+1 == len(ranks) {
			runs = append(runs, Run{Start: ranks[i], Stride: 1, Count: 1})
			break
		}
		stride := ranks[i+1] - ranks[i]
		j := i + 1
		for j+1 < len(ranks) && ranks[j+1]-ranks[j] == stride {
			j++
		}
		count := j - i + 1
		if count == 2 {
			// A two-element "run" may pack better as a singleton plus the
			// start of the next progression; emit the first element alone
			// unless no further elements exist.
			if j+1 < len(ranks) {
				runs = append(runs, Run{Start: ranks[i], Stride: 1, Count: 1})
				i++
				continue
			}
		}
		runs = append(runs, Run{Start: ranks[i], Stride: stride, Count: count})
		i = j + 1
	}
	// Normalize stride of singletons.
	for k := range runs {
		if runs[k].Count == 1 {
			runs[k].Stride = 1
		}
	}
	return Set{runs: runs}
}

// Size returns the number of members.
func (s Set) Size() int {
	n := 0
	for _, r := range s.runs {
		n += r.Count
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return len(s.runs) == 0 }

// Contains reports membership of rank.
func (s Set) Contains(rank int) bool {
	for _, r := range s.runs {
		if r.Contains(rank) {
			return true
		}
	}
	return false
}

// IndexOf returns the position of rank in the ascending member order (its
// index in Members()) and whether it is a member, without expanding the set.
func (s Set) IndexOf(rank int) (int, bool) {
	before := 0
	for _, r := range s.runs {
		if rank < r.Start {
			break
		}
		if rank <= r.Last() {
			if (rank-r.Start)%r.Stride != 0 {
				break
			}
			return before + (rank-r.Start)/r.Stride, true
		}
		before += r.Count
	}
	return -1, false
}

// Members expands the set into a sorted slice of ranks.
func (s Set) Members() []int {
	return s.appendMembers(make([]int, 0, s.Size()))
}

func (s Set) appendMembers(out []int) []int {
	for _, r := range s.runs {
		for i := 0; i < r.Count; i++ {
			out = append(out, r.Start+i*r.Stride)
		}
	}
	return out
}

// containsAll reports whether every member of other is a member of s.
func (s Set) containsAll(other Set) bool {
	for _, r := range other.runs {
		for i := 0; i < r.Count; i++ {
			if !s.Contains(r.Start + i*r.Stride) {
				return false
			}
		}
	}
	return true
}

// Min returns the smallest member; it panics on the empty set.
func (s Set) Min() int {
	if s.IsEmpty() {
		panic("taskset: Min of empty set")
	}
	min := s.runs[0].Start
	for _, r := range s.runs[1:] {
		if r.Start < min {
			min = r.Start
		}
	}
	return min
}

// Max returns the largest member; it panics on the empty set.
func (s Set) Max() int {
	if s.IsEmpty() {
		panic("taskset: Max of empty set")
	}
	max := s.runs[0].Last()
	for _, r := range s.runs[1:] {
		if l := r.Last(); l > max {
			max = l
		}
	}
	return max
}

// Union returns s ∪ other. When one operand already contains the other it
// is returned as is (sets are immutable), which makes absorbing a set into
// itself — the trace builder's per-event case — free.
func (s Set) Union(other Set) Set {
	if s.containsAll(other) {
		return s
	}
	if other.containsAll(s) {
		return other
	}
	a, b := s.Members(), other.Members()
	merged := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			merged, a = append(merged, a[0]), a[1:]
		case a[0] > b[0]:
			merged, b = append(merged, b[0]), b[1:]
		default:
			merged, a, b = append(merged, a[0]), a[1:], b[1:]
		}
	}
	merged = append(append(merged, a...), b...)
	return fromSortedUnique(merged)
}

// Add returns s ∪ {rank}. A rank above every member — how the trace merge
// and Algorithm 1 grow their rank sets, one ascending member at a time —
// costs O(runs), not O(members): see appendMax.
func (s Set) Add(rank int) Set {
	if n := len(s.runs); n == 0 || rank > s.runs[n-1].Last() {
		return s.appendMax(rank)
	}
	if s.Contains(rank) {
		return s
	}
	members := s.appendMembers(make([]int, 0, s.Size()+1))
	at := sort.SearchInts(members, rank)
	members = append(members, 0)
	copy(members[at+1:], members[at:])
	members[at] = rank
	return fromSortedUnique(members)
}

// appendMax returns s ∪ {rank} for a rank above every member, packed exactly
// as fromSortedUnique packs the extended member list. The greedy packer
// decides every run but the last before it has seen the final member (a run
// of two is only ever emitted at the very end), so only the last run can
// change: it grows, or gives up a trailing pair's first member to a
// singleton, or is followed by a new singleton.
func (s Set) appendMax(rank int) Set {
	n := len(s.runs)
	runs := make([]Run, n, n+1)
	copy(runs, s.runs)
	if n == 0 {
		return Set{runs: append(runs, Run{Start: rank, Stride: 1, Count: 1})}
	}
	last := &runs[n-1]
	gap := rank - last.Last()
	switch {
	case last.Count == 1:
		*last = Run{Start: last.Start, Stride: gap, Count: 2}
	case gap == last.Stride:
		last.Count++
	case last.Count == 2:
		second := last.Last()
		*last = Run{Start: last.Start, Stride: 1, Count: 1}
		runs = append(runs, Run{Start: second, Stride: gap, Count: 2})
	default:
		runs = append(runs, Run{Start: rank, Stride: 1, Count: 1})
	}
	return Set{runs: runs}
}

// Equal reports whether two sets have identical membership. It walks the two
// run lists in step and never expands them, so sets packed into different
// runs still compare by membership.
func (s Set) Equal(other Set) bool {
	var ai, aj, bi, bj int // run index and offset within the run, per side
	for ai < len(s.runs) && bi < len(other.runs) {
		ra, rb := s.runs[ai], other.runs[bi]
		if ra.Start+aj*ra.Stride != rb.Start+bj*rb.Stride {
			return false
		}
		if ra == rb && aj == 0 && bj == 0 {
			ai, bi = ai+1, bi+1 // identical runs: skip them whole
			continue
		}
		if aj++; aj == ra.Count {
			ai, aj = ai+1, 0
		}
		if bj++; bj == rb.Count {
			bi, bj = bi+1, 0
		}
	}
	return ai == len(s.runs) && bi == len(other.runs)
}

// String renders the canonical compact form, e.g. "0:6:2,9,12:14".
func (s Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, len(s.runs))
	for i, r := range s.runs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// maxParsed bounds the members of a set Parse accepts; the trace codec, its
// one caller, admits no more ranks (trace.MaxDecodeRanks).
const maxParsed = 1 << 20

// Parse decodes the String form ("{}" or comma-separated runs).
func Parse(text string) (Set, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "{}" {
		return Set{}, nil
	}
	var ranks []int
	for _, part := range strings.Split(text, ",") {
		nums := strings.Split(part, ":")
		switch len(nums) {
		case 1:
			v, err := strconv.Atoi(nums[0])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad rank %q: %w", part, err)
			}
			ranks = append(ranks, v)
		case 2, 3:
			lo, err := strconv.Atoi(nums[0])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad range %q: %w", part, err)
			}
			hi, err := strconv.Atoi(nums[1])
			if err != nil {
				return Set{}, fmt.Errorf("taskset: bad range %q: %w", part, err)
			}
			stride := 1
			if len(nums) == 3 {
				stride, err = strconv.Atoi(nums[2])
				if err != nil || stride < 1 {
					return Set{}, fmt.Errorf("taskset: bad stride in %q", part)
				}
			}
			if hi < lo {
				return Set{}, fmt.Errorf("taskset: descending range %q", part)
			}
			// A dozen bytes of text name a run of any length, and the runs
			// are expanded before they are packed again.
			span := hi - lo
			if span < 0 || span/stride >= maxParsed-len(ranks) {
				return Set{}, fmt.Errorf("taskset: %q holds more than %d ranks", text, maxParsed)
			}
			for i := 0; i <= span/stride; i++ {
				ranks = append(ranks, lo+i*stride)
			}
		default:
			return Set{}, fmt.Errorf("taskset: malformed run %q", part)
		}
	}
	return Of(ranks...), nil
}
