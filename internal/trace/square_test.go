package trace

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// hasSquareExhaustive is hasSquare as it was before the divide and conquer,
// kept as the reference it is held to: every window against the one after it.
func hasSquareExhaustive(b *Builder, body []Node) bool {
	for end := 2; end <= len(body); end++ {
		for w := 1; 2*w <= end; w++ {
			if b.windowsEqual(body[end-2*w:end-w], body[end-w:end]) {
				return true
			}
		}
	}
	return false
}

// squareLeaf is symbol sym of a square-check body: its tag is sym/2 and its
// rank sym%2, so two symbols that differ in the low bit are equal to a stream
// builder and unequal, under equal hashes, to a global one. A symbol from 1000
// on is a two-iteration loop around the leaf of sym-1000.
func squareLeaf(sym int) Node {
	if sym >= 1000 {
		return &Loop{Iters: 2, Body: []Node{squareLeaf(sym - 1000)}}
	}
	return &RSD{Op: mpi.OpIsend, Site: 7, Ranks: taskset.Of(sym % 2), CommSize: 4, Peer: AbsParam(1), Tag: sym / 2, Size: 8, Root: -1}
}

func squareBody(syms []int) []Node {
	body := make([]Node, len(syms))
	for i, s := range syms {
		body[i] = squareLeaf(s)
	}
	return body
}

// squareFreeWord returns n letters of the ternary Thue–Morse word (the number
// of ones between consecutive zeros of the Thue–Morse sequence), which holds
// no square, as the symbols 0, 2 and 4: distinct to both builders.
func squareFreeWord(n int) []int {
	word := make([]int, 0, n)
	ones := 0
	for i := 1; len(word) < n; i++ {
		if bits.OnesCount(uint(i))%2 == 1 {
			ones++
			continue
		}
		word = append(word, 2*ones)
		ones = 0
	}
	return word
}

// squareBodies returns pseudo-random symbol strings of up to 2,000 symbols:
// short ones over four symbols, where a square's ends sit at the edges of the
// runs the check grows; uniform over small and large alphabets, square-free
// words under a random map of their letters, and square-free words with a
// square planted, or a near-square whose copy differs only in one symbol's
// rank.
func squareBodies(rng *rand.Rand) [][]int {
	var out [][]int
	for range 2000 {
		syms := make([]int, 2+rng.Intn(12))
		for i := range syms {
			syms[i] = rng.Intn(4)
		}
		out = append(out, syms)
	}
	for _, k := range []int{2, 3, 5, 40, 2000} {
		for range 4 {
			syms := make([]int, 1+rng.Intn(2000))
			for i := range syms {
				syms[i] = rng.Intn(k)
				if rng.Intn(50) == 0 {
					syms[i] += 1000
				}
			}
			out = append(out, syms)
		}
	}
	for range 24 {
		n := 2 + rng.Intn(1999)
		letters := [3]int{2 * rng.Intn(300), 0, 0}
		letters[1] = letters[0] + 2 + 2*rng.Intn(300)
		letters[2] = letters[1] + 2 + 2*rng.Intn(300)
		syms := squareFreeWord(n)
		for i := range syms {
			syms[i] = letters[syms[i]/2]
		}
		out = append(out, syms)
		w := 1 + rng.Intn(n/2)
		p := rng.Intn(n - 2*w + 1)
		planted := append([]int(nil), syms...)
		copy(planted[p+w:p+2*w], planted[p:p+w])
		out = append(out, planted)
		near := append([]int(nil), planted...)
		near[p+w+rng.Intn(w)] ^= 1
		out = append(out, near)
	}
	return out
}

// TestHasSquareMatchesExhaustive holds the divide-and-conquer square check to
// the exhaustive one it replaced, in both builders, over bodies of up to
// 2,000 nodes.
func TestHasSquareMatchesExhaustive(t *testing.T) {
	if !hasSquareExhaustive(NewStreamBuilder(1), squareBody([]int{1, 2, 3, 2, 3})) ||
		hasSquareExhaustive(NewStreamBuilder(1), squareBody(squareFreeWord(2000))) {
		t.Fatal("the reference itself is wrong")
	}
	rng := rand.New(rand.NewSource(39))
	found := [2]int{}
	for i, syms := range squareBodies(rng) {
		for _, b := range []*Builder{NewStreamBuilder(DefaultMaxWindow), NewGlobalBuilder(DefaultMaxWindow)} {
			lp := &Loop{Iters: 2, Body: squareBody(syms)}
			want := hasSquareExhaustive(b, lp.Body)
			if got := b.hasSquare(lp); got != want {
				t.Fatalf("body %d (%d nodes, rank-sensitive %v): hasSquare %v, exhaustive %v", i, len(syms), b.rankSensitive, got, want)
			}
			if found[boolInt(want)]++; !want && b.squareFree != lp {
				t.Fatalf("body %d: a square-free body is not remembered", i)
			}
		}
	}
	if found[0] == 0 || found[1] == 0 {
		t.Fatalf("bodies with and without squares: %v; the test does not reach both answers", found)
	}
}

// FuzzHasSquare holds the square check to the exhaustive one on bodies the
// fuzzer writes, one byte per symbol (see squareLeaf), in both builders.
func FuzzHasSquare(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 3})
	f.Add([]byte{2, 4, 6, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := make([]int, len(data))
		for i, c := range data {
			syms[i] = int(c % 64)
			if c >= 240 {
				syms[i] += 1000
			}
		}
		for _, b := range []*Builder{NewStreamBuilder(DefaultMaxWindow), NewGlobalBuilder(DefaultMaxWindow)} {
			lp := &Loop{Iters: 2, Body: squareBody(syms)}
			if got, want := b.hasSquare(lp), hasSquareExhaustive(b, lp.Body); got != want {
				t.Fatalf("rank-sensitive %v, %v: hasSquare %v, exhaustive %v", b.rankSensitive, syms, got, want)
			}
		}
	})
}

// TestArmingAFreshLoopAllocatesNothing is the cost row of arm: checking a
// new tail loop of 2,000 nodes for a square and a long fold allocates nothing.
func TestArmingAFreshLoopAllocatesNothing(t *testing.T) {
	for _, b := range []*Builder{NewStreamBuilder(2000), NewGlobalBuilder(2000)} {
		lp := &Loop{Iters: 2, Body: squareBody(squareFreeWord(2000))}
		b.seq = []Node{lp}
		b.index(0, lp)
		allocs := testing.AllocsPerRun(20, func() {
			b.frames, b.squareFree, b.nested = b.frames[:0], nil, nil
			if b.arm(); len(b.frames) != 1 || b.frames[0].loop != lp {
				t.Fatal("a square-free loop with nothing before it was not armed")
			}
		})
		if allocs != 0 {
			t.Fatalf("rank-sensitive %v: arming allocated %v objects", b.rankSensitive, allocs)
		}
	}
}
