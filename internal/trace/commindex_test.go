package trace

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// scanCommRank is the definition the index must reproduce: the first
// position of worldRank in the group.
func scanCommRank(comms map[int][]int, commID, worldRank int) (int, bool) {
	for i, wr := range comms[commID] {
		if wr == worldRank {
			return i, true
		}
	}
	return -1, false
}

// TestCommIndexMatchesScan checks the three translations against each other
// for every world rank in [-1, N] (one below and one above the world): the
// Trace's CommRankOf, the merge's index read directly, and the linear scan.
func TestCommIndexMatchesScan(t *testing.T) {
	const n = 12
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	cases := []struct {
		name  string
		comms map[int][]int
	}{
		{"identity", map[int][]int{0: identity}},
		{"identity prefix", map[int][]int{0: identity, 1: identity[:5]}},
		{"permutation", map[int][]int{0: identity, 1: {3, 0, 11, 7, 1, 2, 4, 5, 6, 8, 9, 10}}},
		{"sparse subset", map[int][]int{0: identity, 1: {9, 2, 6}}},
		{"single member", map[int][]int{0: identity, 1: {7}, 2: {0}}},
		{"empty group", map[int][]int{0: identity, 1: {}}},
		{"no world comm", map[int][]int{4: {1, 3}}},
		{"no comms", nil},
		// Hand-built groups may repeat a member (Decode rejects them): the
		// first occurrence wins everywhere.
		{"repeated member", map[int][]int{0: identity, 1: {5, 5, 1, 5}, 2: {1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Trace{N: n, Comms: tc.comms}
			merge := newCommIndex(tc.comms)
			// ids: every declared communicator plus two unknown ones.
			ids := []int{-1, 99}
			for id := range tc.comms {
				ids = append(ids, id)
			}
			for _, id := range ids {
				for w := -1; w <= n; w++ {
					wantI, wantOK := scanCommRank(tc.comms, id, w)
					if i, ok := tr.CommRankOf(id, w); i != wantI || ok != wantOK {
						t.Errorf("Trace.CommRankOf(%d, %d) = %d, %v; scan says %d, %v", id, w, i, ok, wantI, wantOK)
					}
					if i, ok := merge.CommRankOf(id, w); i != wantI || ok != wantOK {
						t.Errorf("index.CommRankOf(%d, %d) = %d, %v; scan says %d, %v", id, w, i, ok, wantI, wantOK)
					}
				}
			}
		})
	}
}

// TestCommRankOfSurvivesEditedComms edits groups after the first lookup has
// built the index — in place, by replacing a slice, by adding and by deleting
// a communicator. A stale hit fails validation and a stale miss falls through
// to the scan, so every answer equals a fresh scan's (and a fresh index's).
func TestCommRankOfSurvivesEditedComms(t *testing.T) {
	const n = 8
	tr := &Trace{N: n, Comms: map[int][]int{
		0: {0, 1, 2, 3, 4, 5, 6, 7},
		1: {6, 2, 4},
		2: {1, 3},
	}}
	if i, ok := tr.CommRankOf(1, 4); !ok || i != 2 {
		t.Fatalf("CommRankOf(1, 4) = %d, %v before the edit", i, ok)
	}
	built := tr.idx.Load()
	if built == nil {
		t.Fatal("the first lookup built no index")
	}

	tr.Comms[0][2], tr.Comms[0][5] = 5, 2 // identity no more
	tr.Comms[1][0], tr.Comms[1][2] = 4, 6 // members swapped in place
	tr.Comms[2] = []int{3, 1, 7}          // slice replaced and grown
	tr.Comms[3] = []int{5, 0}             // communicator added
	delete(tr.Comms, 1)                   // ... and one removed
	tr.Comms[1] = []int{2, 4}             // ... and re-added shorter

	fresh := newCommIndex(tr.Comms)
	for id := -1; id <= 4; id++ {
		for w := -1; w <= n; w++ {
			wantI, wantOK := scanCommRank(tr.Comms, id, w)
			if i, ok := tr.CommRankOf(id, w); i != wantI || ok != wantOK {
				t.Errorf("after edit: Trace.CommRankOf(%d, %d) = %d, %v; scan says %d, %v", id, w, i, ok, wantI, wantOK)
			}
			if i, ok := fresh.CommRankOf(id, w); i != wantI || ok != wantOK {
				t.Errorf("after edit: fresh index (%d, %d) = %d, %v; scan says %d, %v", id, w, i, ok, wantI, wantOK)
			}
		}
	}
	if tr.idx.Load() != built {
		t.Error("the index was rebuilt; edits are meant to cost scans, not rebuilds")
	}
}

// TestMergePublishesItsIndex pins that the merge and the merged trace share
// one index: MergeClasses builds it, CommRankOf reuses it.
func TestMergePublishesItsIndex(t *testing.T) {
	tr := collectRingTrace(t, 8)
	built := tr.idx.Load()
	if built == nil {
		t.Fatal("MergeClasses left the trace without an index")
	}
	if i, ok := tr.CommRankOf(0, 5); !ok || i != 5 {
		t.Fatalf("CommRankOf(0, 5) = %d, %v", i, ok)
	}
	if tr.idx.Load() != built {
		t.Error("CommRankOf replaced the merge's index")
	}
}

// TestCommIndexMemoryIsSumOfNonIdentityGroups decodes the worst upload the
// bounds admit for the index — beside the world, MaxDecodeComms-1 one-member
// communicators on a world of MaxDecodeComms ranks — and bounds what building
// the index allocates. A communicators x world-size table would be 65536 x
// 65536 x 4 B = 16 GiB; the maps are ~0.2 KB per one-member group (measured:
// 15.3 MB in all). An identity group of any size must allocate nothing beyond
// its entry.
func TestCommIndexMemoryIsSumOfNonIdentityGroups(t *testing.T) {
	const n = MaxDecodeComms
	var sb strings.Builder
	fmt.Fprintf(&sb, "scalatrace-go 1\nnprocs %d\ncomms %d\ncomm 0 0", n, n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, ",%d", i)
	}
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "\ncomm %d %d", i+1, i)
	}
	fmt.Fprintf(&sb, "\ngroups 1\ngroup 0:%d 0\n", n-1)
	tr, err := Decode(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	// allocated is the least f allocated in three calls: a background
	// allocation landing inside one measurement cannot fail the bounds.
	allocated := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if got := allocated(func() { newCommIndex(tr.Comms) }); got > 64<<20 {
		t.Errorf("index of %d one-member communicators allocated %.1f MB, want under 64 MB", n-1, float64(got)/(1<<20))
	} else {
		t.Logf("index of %d one-member communicators: %.1f MB", n-1, float64(got)/(1<<20))
	}
	for _, w := range []int{0, 1, n / 2, n - 2} {
		if i, ok := tr.CommRankOf(w+1, w); !ok || i != 0 {
			t.Fatalf("CommRankOf(%d, %d) = %d, %v, want 0, true", w+1, w, i, ok)
		}
	}

	// Identity groups: the bytes allocated do not depend on the group's size.
	world := func(size int) map[int][]int {
		g := make([]int, size)
		for i := range g {
			g[i] = i
		}
		return map[int][]int{0: g, 1: g, 2: g[:size/2]}
	}
	small, large := world(16), world(1<<20)
	a := allocated(func() { newCommIndex(small) })
	b := allocated(func() { newCommIndex(large) })
	if b > a+4096 {
		t.Errorf("identity groups of 16 ranks cost %d B to index, of 2^20 ranks %d B; want the same (a table would be 8 MB)", a, b)
	}
}
