// Package taskset implements compact sets of MPI ranks ("tasks") as sorted
// lists of strided runs. ScalaTrace stores the participant list of a merged
// RSD this way so that trace size stays near-constant in the number of ranks,
// and coNCePTuaL addresses task groups with expressions such as
// "TASKS t SUCH THAT t MOD 3 = 0"; this package serves both needs.
package taskset

import (
	"fmt"
	"math/bits"
	"slices"
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

// ContainsAll reports whether every member of other is a member of s. It
// never expands either set: each run of other is matched against the runs of
// s it overlaps, the first found by binary search.
func (s Set) ContainsAll(other Set) bool {
	i := 0
	for _, r := range other.runs {
		for pos, left := r.Start, r.Count; left > 0; {
			i += sort.Search(len(s.runs)-i, func(k int) bool { return s.runs[i+k].Last() >= pos })
			if i == len(s.runs) || pos < s.runs[i].Start || (pos-s.runs[i].Start)%s.runs[i].Stride != 0 {
				return false
			}
			t := s.runs[i]
			k := min(left, (t.Last()-pos)/r.Stride+1) // r's members from pos to t's end
			if k > 1 && r.Stride%t.Stride != 0 {
				return false
			}
			pos, left = pos+k*r.Stride, left-k
		}
	}
	return true
}

// Min returns the smallest member; it panics on the empty set.
func (s Set) Min() int {
	if s.IsEmpty() {
		panic("taskset: Min of empty set")
	}
	return s.runs[0].Start
}

// Max returns the largest member; it panics on the empty set.
func (s Set) Max() int {
	if s.IsEmpty() {
		panic("taskset: Max of empty set")
	}
	return s.runs[len(s.runs)-1].Last()
}

// XorBound returns an upper bound on r^v over the members r of s, -1 for
// the empty set; s and v must be non-negative. It reads runs, not members:
// the bound is the maximum itself when every run's stride is a power of two
// (a contiguous run's is 1), and for a run of another stride the maximum over
// the range the run spans.
func (s Set) XorBound(v int) int {
	bound := -1
	for _, r := range s.runs {
		if r.Count == 1 || r.Stride&(r.Stride-1) != 0 {
			bound = max(bound, MaxXor(r.Start, r.Last(), v))
			continue
		}
		// A stride of 2^j fixes the low j bits; the bits above run over a
		// contiguous range.
		j := bits.TrailingZeros(uint(r.Stride))
		hi := r.Start >> j
		low := (r.Start ^ v) & (r.Stride - 1)
		bound = max(bound, MaxXor(hi, hi+r.Count-1, v>>j)<<j|low)
	}
	return bound
}

// MaxXor returns the maximum of r^v over lo <= r <= hi, for 0 <= lo <= hi
// and v >= 0: bit by bit from the top, r takes the bit opposite v's whenever
// some r of the range still has the bits chosen so far.
func MaxXor(lo, hi, v int) int {
	r := 0
	for b := bits.Len(uint(hi)) - 1; b >= 0; b-- {
		want := r | (v>>b&1^1)<<b
		if want <= hi && want|(1<<b-1) >= lo {
			r = want
		} else {
			r |= (v >> b & 1) << b
		}
	}
	return r ^ v
}

// Union returns s ∪ other. When one operand already contains the other it
// is returned as is (sets are immutable), which makes absorbing a set into
// itself — the trace builder's per-event case — free.
func (s Set) Union(other Set) Set {
	if s.Identical(other) || s.ContainsAll(other) {
		return s
	}
	if other.ContainsAll(s) {
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

// Identical reports whether two sets are packed into the same runs, which
// every method, Add and String included, then answers alike for.
func (s Set) Identical(other Set) bool { return slices.Equal(s.runs, other.runs) }

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

// Parse decodes the text String prints: "{}" or runs separated by commas,
// each as Run.String writes it, read run by run in time linear in the text;
// no run is expanded. Blank text is the empty set. Text that names a set in
// any other spelling is refused, with the spelling String prints.
func Parse(text string) (Set, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "{}" {
		return Set{}, nil
	}
	runs := make([]Run, 0, strings.Count(text, ",")+1)
	canonical, total := true, 0
	for rest, more := text, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		r, spelled, err := parseRun(part)
		if err != nil {
			return Set{}, err
		}
		// A dozen bytes of text name a run of any length.
		if r.Count > 1 && r.Count-1 >= maxParsed-total {
			return Set{}, fmt.Errorf("taskset: %q holds more than %d ranks", text, maxParsed)
		}
		total += r.Count
		canonical = canonical && spelled
		runs = append(runs, r)
	}
	s := Set{runs: runs}
	if !packed(runs) {
		canonical = false
		s = Of(s.appendMembers(make([]int, 0, total))...)
	}
	if !canonical {
		return Set{}, fmt.Errorf("taskset: %q is not canonical (String prints %q)", text, s)
	}
	return s, nil
}

// parseRun reads one run, "start", "start:last" or "start:last:stride", and
// reports whether it is spelled as Run.String writes it: numbers as
// strconv.Itoa spells them, last a member above start, and a stride only
// when it is not 1. A run of more than maxParsed members, which Parse
// refuses, is never counted out: its Count is maxParsed+1.
func parseRun(part string) (r Run, spelled bool, err error) {
	var nums [3]int
	k := strings.Count(part, ":") + 1
	if k > len(nums) {
		return Run{}, false, fmt.Errorf("taskset: malformed run %q", part)
	}
	spelled = true
	rest := part
	for i := range k {
		var field string
		field, rest, _ = strings.Cut(rest, ":")
		if nums[i], err = strconv.Atoi(field); err != nil {
			return Run{}, false, fmt.Errorf("taskset: bad run %q: %w", part, err)
		}
		spelled = spelled && decimal(field)
	}
	r = Run{Start: nums[0], Stride: 1, Count: 1}
	if k == 1 {
		return r, spelled, nil
	}
	if k == 3 {
		r.Stride = nums[2]
	}
	switch {
	case r.Stride < 1:
		return Run{}, false, fmt.Errorf("taskset: bad stride in %q", part)
	case nums[1] < nums[0]:
		return Run{}, false, fmt.Errorf("taskset: descending range %q", part)
	}
	// The span is checked after the subtraction too: it may wrap.
	span := nums[1] - nums[0]
	if span < 0 || span/r.Stride >= maxParsed {
		r.Count = maxParsed + 1
	} else {
		r.Count = span/r.Stride + 1
	}
	spelled = spelled && span > 0 && span%r.Stride == 0 && (k == 3) == (r.Stride > 1)
	return r, spelled, nil
}

// decimal reports whether s, which strconv.Atoi accepted, is spelled as
// strconv.Itoa spells its value: no plus sign, no leading zero, no "-0".
func decimal(s string) bool {
	neg := strings.HasPrefix(s, "-")
	s = strings.TrimPrefix(s, "-")
	return s[0] != '+' && (s[0] != '0' || s == "0" && !neg)
}

// packed reports whether runs are what fromSortedUnique makes of their
// members, from the runs alone. They ascend without overlap, and the greedy
// packer, starting at each run's first member, ends there: a run of three or
// more is not continued by the next member, a pair comes last, and a
// singleton is neither the start of a progression of three nor followed by
// only one more member (the packer would pair the two).
func packed(runs []Run) bool {
	for i := 0; i+1 < len(runs); i++ {
		r, next := runs[i], runs[i+1]
		if next.Start <= r.Last() || r.Count == 2 {
			return false
		}
		switch gap := next.Start - r.Last(); {
		case r.Count > 2 && gap == r.Stride:
			return false
		case r.Count == 1 && next.Count > 1 && next.Stride == gap:
			return false
		case r.Count == 1 && next.Count == 1 && (i+2 == len(runs) || runs[i+2].Start-next.Start == gap):
			return false
		}
	}
	return true
}
