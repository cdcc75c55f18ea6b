package taskset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestOfDeduplicatesAndSorts(t *testing.T) {
	s := Of(3, 1, 2, 3, 1)
	if got := s.Members(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("members = %v", got)
	}
	if s.Size() != 3 {
		t.Fatalf("size = %d", s.Size())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Size() != 0 || s.Contains(0) {
		t.Fatal("zero Set is not empty")
	}
	if s.String() != "{}" {
		t.Fatalf("empty string = %q", s.String())
	}
	if !Empty.Equal(Of()) {
		t.Fatal("Empty != Of()")
	}
}

func TestRange(t *testing.T) {
	s := Range(2, 5)
	want := []int{2, 3, 4, 5}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if !Range(5, 2).IsEmpty() {
		t.Fatal("descending Range should be empty")
	}
	if s.String() != "2:5" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestStrided(t *testing.T) {
	s := Strided(1, 3, 4) // 1,4,7,10
	if got := s.String(); got != "1:10:3" {
		t.Fatalf("String = %q", got)
	}
	for _, m := range []int{1, 4, 7, 10} {
		if !s.Contains(m) {
			t.Errorf("missing %d", m)
		}
	}
	for _, m := range []int{0, 2, 3, 5, 11, 13} {
		if s.Contains(m) {
			t.Errorf("spurious %d", m)
		}
	}
	if !Strided(5, 2, 0).IsEmpty() {
		t.Fatal("zero-count Strided should be empty")
	}
	if Strided(5, 9, 1).String() != "5" {
		t.Fatal("singleton stride not normalized")
	}
}

func TestStridedPanicsOnBadStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Strided(0, 0, 3)
}

func TestCompaction(t *testing.T) {
	// Even ranks pack into a single strided run.
	s := Of(0, 2, 4, 6, 8)
	if len(s.runs) != 1 {
		t.Fatalf("runs = %v", s.runs)
	}
	if s.String() != "0:8:2" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestMinMax(t *testing.T) {
	s := Of(7, 2, 9)
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Empty.Min()
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 4)
	b := Of(3, 4, 5, 6)
	if got := a.Union(b); !got.Equal(Of(1, 2, 3, 4, 5, 6)) {
		t.Fatalf("union = %v", got)
	}
	if got := a.Add(10); !got.Equal(Of(1, 2, 3, 4, 10)) {
		t.Fatalf("add = %v", got)
	}
	if got := a.Add(2); !got.Equal(a) {
		t.Fatalf("add existing = %v", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []Set{
		Empty,
		Of(5),
		Range(0, 15),
		Strided(0, 2, 8),
		Of(0, 1, 2, 5, 9, 11, 13, 15),
	}
	for _, s := range cases {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip %q -> %v", s.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	// The last three would expand to gigabytes.
	for _, bad := range []string{"a", "1:b", "1:5:0", "5:1", "1:2:3:4", "x:y",
		"1:110864359", "7,0:1048575", "-9223372036854775808:9223372036854775807"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// A stride near the top of int must not wrap the expansion around.
func TestParseHugeStride(t *testing.T) {
	s, err := Parse("0:9223372036854775807:9223372036854775806")
	if err != nil || !s.Equal(Of(0, 9223372036854775806)) {
		t.Fatalf("Parse = %v, %v", s, err)
	}
	if s, err = Parse("0:1048575"); err != nil || s.Size() != 1<<20 {
		t.Fatalf("a set of 2^20 ranks: %v, %v", s.Size(), err)
	}
}

func TestParseEmptyForms(t *testing.T) {
	for _, txt := range []string{"", "{}", "  "} {
		s, err := Parse(txt)
		if err != nil || !s.IsEmpty() {
			t.Errorf("Parse(%q) = %v, %v", txt, s, err)
		}
	}
}

func TestDescribe(t *testing.T) {
	n := 16
	cases := []struct {
		s    Set
		kind PredicateKind
	}{
		{Range(0, 15), KindAll},
		{Of(3), KindSingleton},
		{Range(4, 11), KindRange},
		{Strided(0, 4, 4), KindStride},
		{Strided(1, 4, 4), KindStride},
		{Of(0, 1, 5, 9), KindEnum},
		{Range(0, 14), KindRange}, // not all: missing 15
	}
	for _, c := range cases {
		if got := c.s.Describe(n); got.Kind != c.kind {
			t.Errorf("Describe(%v) kind = %v, want %v", c.s, got.Kind, c.kind)
		}
	}
	p := Of(3).Describe(n)
	if p.Value != 3 {
		t.Errorf("singleton value = %d", p.Value)
	}
	p = Strided(1, 4, 4).Describe(n)
	if p.Stride != 4 || p.Offset != 1 {
		t.Errorf("stride predicate = %+v", p)
	}
}

func TestPropertyRoundTripRandom(t *testing.T) {
	// Property: Of -> String -> Parse recovers exactly the same membership.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = rng.Intn(256)
		}
		s := Of(ranks...)
		back, err := Parse(s.String())
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMembersSortedUnique(t *testing.T) {
	f := func(ranks []uint8) bool {
		ints := make([]int, len(ranks))
		for i, r := range ranks {
			ints[i] = int(r)
		}
		m := Of(ints...).Members()
		if !sort.IntsAreSorted(m) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i] == m[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAlgebraLaws(t *testing.T) {
	// Union is commutative and holds exactly the members of either operand.
	f := func(xs, ys []uint8) bool {
		xi := make([]int, len(xs))
		for i, v := range xs {
			xi[i] = int(v % 32)
		}
		yi := make([]int, len(ys))
		for i, v := range ys {
			yi[i] = int(v % 32)
		}
		a, b := Of(xi...), Of(yi...)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		u, both := a.Union(b), 0
		for m := 0; m < 32; m++ {
			if u.Contains(m) != (a.Contains(m) || b.Contains(m)) {
				return false
			}
			if a.Contains(m) && b.Contains(m) {
				both++
			}
		}
		return u.Size() == a.Size()+b.Size()-both
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// modelSets yields a set built three ways from the same draw — Of, a single
// Range/Strided run, and hand-split runs that pack the Of members as
// singletons and pairs (a packing Of never produces) — each with its
// map[int]bool model.
func modelSets(rng *rand.Rand) ([]Set, []map[int]bool) {
	model := func(s Set) map[int]bool {
		m := map[int]bool{}
		for _, r := range s.runs {
			for i := 0; i < r.Count; i++ {
				m[r.Start+i*r.Stride] = true
			}
		}
		return m
	}
	ranks := make([]int, rng.Intn(12))
	for i := range ranks {
		ranks[i] = rng.Intn(40)
	}
	of := Of(ranks...)
	var split Set
	members := of.Members()
	for i := 0; i < len(members); {
		if i+1 < len(members) && rng.Intn(2) == 0 {
			split.runs = append(split.runs, Run{Start: members[i], Stride: members[i+1] - members[i], Count: 2})
			i += 2
		} else {
			split.runs = append(split.runs, Run{Start: members[i], Stride: 1, Count: 1})
			i++
		}
	}
	sets := []Set{
		of,
		split,
		Range(rng.Intn(20), rng.Intn(40)),
		Strided(rng.Intn(10), 1+rng.Intn(5), rng.Intn(8)),
	}
	models := make([]map[int]bool, len(sets))
	for i, s := range sets {
		models[i] = model(s)
	}
	return sets, models
}

// TestPropertyRunWalksMatchModel checks the operations that walk runs in
// place of expanding them — Equal, Union, Add, IndexOf — against a
// map[int]bool model, across sets whose run packings differ.
func TestPropertyRunWalksMatchModel(t *testing.T) {
	sameMembers := func(s Set, m map[int]bool) bool {
		got := s.Members()
		if len(got) != len(m) || !sort.IntsAreSorted(got) {
			return false
		}
		for _, v := range got {
			if !m[v] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sets, models := modelSets(rng)
		more, moreModels := modelSets(rng)
		sets, models = append(sets, more...), append(models, moreModels...)
		for i, a := range sets {
			for rank := -1; rank <= 41; rank++ {
				idx, ok := a.IndexOf(rank)
				if ok != models[i][rank] || (ok && a.Members()[idx] != rank) || (!ok && idx != -1) {
					t.Logf("IndexOf(%d) on %v = %d, %v", rank, a, idx, ok)
					return false
				}
				added := map[int]bool{rank: true}
				for v := range models[i] {
					added[v] = true
				}
				if !sameMembers(a.Add(rank), added) {
					t.Logf("%v.Add(%d) = %v", a, rank, a.Add(rank))
					return false
				}
			}
			for j, b := range sets {
				equal := len(models[i]) == len(models[j])
				union := map[int]bool{}
				for v := range models[i] {
					union[v] = true
					equal = equal && models[j][v]
				}
				for v := range models[j] {
					union[v] = true
				}
				if a.Equal(b) != equal {
					t.Logf("%v.Equal(%v) = %v", a, b, !equal)
					return false
				}
				if u := a.Union(b); !sameMembers(u, union) || !u.Equal(Of(u.Members()...)) {
					t.Logf("%v.Union(%v) = %v", a, b, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSingletonUnionAndEqualDoNotAllocate(t *testing.T) {
	a, b := Of(5), Of(5)
	var u Set
	var eq bool
	if n := testing.AllocsPerRun(100, func() { u, eq = a.Union(b), a.Equal(b) }); n != 0 {
		t.Fatalf("singleton Union+Equal allocate %v objects, want 0", n)
	}
	if !eq || !u.Equal(a) {
		t.Fatalf("Union = %v, Equal = %v", u, eq)
	}
}

func TestPropertyAddPacksLikeFromSortedUnique(t *testing.T) {
	// Property: growing a set one Add at a time — ascending, where Add only
	// touches the last run, or in any other order — packs the same runs as
	// fromSortedUnique on the members added so far, at every step.
	f := func(seed int64, nRaw, spreadRaw uint8, ascending bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := rng.Perm(int(spreadRaw%96) + 2)[:int(nRaw)%(int(spreadRaw%96)+2)+1]
		if ascending {
			sort.Ints(ranks)
		}
		s := Empty
		for i, r := range ranks {
			s = s.Add(r)
			sofar := append([]int(nil), ranks[:i+1]...)
			sort.Ints(sofar)
			want := fromSortedUnique(sofar)
			if s.String() != want.String() || !reflect.DeepEqual(s.runs, want.runs) {
				t.Logf("after adding %v: %v (runs %v), want %v (runs %v)", ranks[:i+1], s, s.runs, want, want.runs)
				return false
			}
			if again := s.Add(r); !reflect.DeepEqual(again.runs, s.runs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
