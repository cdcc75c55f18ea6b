package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/taskset"
)

// TestCheckLeafMatchesPerRankRules holds the leaf check, which settles rules 3-5
// for a leaf's ranks as a whole where it can, to the rules read one rank at a
// time: the leaf passes exactly when every rank it names is in its group, is a
// member of its communicator and, on a point-to-point leaf, has a peer that is
// a rank of it (or any, on a receive).
func TestCheckLeafMatchesPerRankRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []mpi.Op{mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv, mpi.OpBarrier, mpi.OpAllreduce}
	kinds := []ParamKind{ParamNone, ParamAbs, ParamRel, ParamXor, ParamAny, ParamVec}
	subset := func(n, extra int) []int {
		var out []int
		for r := 0; r < n+extra; r++ {
			if rng.Intn(3) > 0 {
				out = append(out, r)
			}
		}
		return out
	}
	settled, walked := 0, 0
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(12)
		tr := &Trace{N: n, Comms: map[int][]int{0: worldComms(n)[0], 1: worldComms(1 + rng.Intn(n))[0]}}
		sub := subset(n, 0)
		rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
		if len(sub) > 0 {
			tr.Comms[2] = sub
		}
		group := taskset.Of(subset(n, 0)...)
		x := &RSD{Op: ops[rng.Intn(len(ops))], Ranks: taskset.Of(subset(n, 2)...), CommID: rng.Intn(3)}
		comm, ok := tr.Comms[x.CommID]
		if !ok {
			continue
		}
		x.CommSize = len(comm)
		x.Peer = Param{Kind: kinds[rng.Intn(len(kinds))], Value: rng.Intn(2*n+2) - 2}
		if x.Peer.Kind == ParamVec {
			x.PeerVec = make([]int, max(0, x.Ranks.Size()+rng.Intn(3)-1))
			for j := range x.PeerVec {
				x.PeerVec[j] = rng.Intn(n+2) - 1
			}
		}
		members := taskset.Of(comm...)
		want := true
		for _, r := range x.Ranks.Members() {
			_, member := tr.CommRankOf(x.CommID, r)
			want = want && group.Contains(r) && member
			if peer := x.PeerFor(r, tr); want && x.Op.IsPointToPoint() {
				want = uint(peer) < uint(len(comm)) || (peer == mpi.AnySource && !x.Op.IsSendSide())
			}
		}
		c := &ruleCheck{t: tr, walks: math.MaxInt}
		if err := c.leaf(group, members, x); (err == nil) != want {
			t.Fatalf("group %s, comm %d = %v, leaf %v pvec %v: leaf check = %v, per-rank rules say pass = %v",
				group, x.CommID, comm, x, x.PeerVec, err, want)
		}
		if !x.Ranks.IsEmpty() && group.ContainsAll(x.Ranks) {
			if c.allRanksPass(x, len(comm), members) {
				settled++
			} else {
				walked++
			}
		}
	}
	t.Logf("leaves settled as a whole: %d, walked rank by rank: %d", settled, walked)

	// On a permuted communicator the bound over world ranks says nothing:
	// world rank 1 XOR 1 is 0, but 1 is comm rank 2, whose peer 3 is not a
	// rank of the communicator.
	tr := &Trace{N: 3, Comms: map[int][]int{0: {0, 1, 2}, 1: {2, 0, 1}}}
	x := &RSD{Op: mpi.OpSend, Ranks: taskset.Of(1), CommID: 1, CommSize: 3, Peer: XorParam(1), Root: -1}
	c := &ruleCheck{t: tr, walks: math.MaxInt}
	if err := c.leaf(taskset.Of(0, 1, 2), taskset.Of(0, 1, 2), x); err == nil {
		t.Fatal("an XOR peer outside a permuted communicator passed the rules")
	}
}

// TestDecodeRuleCostIsLinearInTheDocument decodes one shape of upload — one
// group of every rank, a sub-communicator of scattered ranks, and leaves that
// each name one rank (Barriers on the world and the sub-communicator, XOR
// sends) — at 16 ranks and at 2^18 (the runnable cap), with the same leaf
// count. A check that walked the group's ranks per leaf costs leaves × ranks:
// at 2^18, 50,000 leaves are 1.3e10 steps, minutes where the 16-rank decode
// takes a fraction of a second. Checked per leaf as rank sets, the large world
// costs only its longer communicator lines.
func TestDecodeRuleCostIsLinearInTheDocument(t *testing.T) {
	const leaves = 50000
	upload := func(n int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "scalatrace-go 1\nnprocs %d\ncomms 2\ncomm 0 %s\n", n, intsString(worldComms(n)[0]))
		var sub []int
		for r := n - 1; r >= 0; r-- {
			if r%3 != 0 {
				sub = append(sub, r)
			}
		}
		fmt.Fprintf(&b, "comm 1 %s\ngroups 1\ngroup 0:%d %d\n", intsString(sub), n-1, leaves)
		for i := 0; i < leaves; i++ {
			r := i % n
			switch i % 3 {
			case 0:
				fmt.Fprintf(&b, "rsd op=Barrier site=%d ranks=%d comm=0 csize=%d peer=- tag=0 size=0 root=-1\n", i, r, n)
			case 1:
				fmt.Fprintf(&b, "rsd op=Isend site=%d ranks=%d comm=0 csize=%d peer=xor1 tag=0 size=8 root=-1\n", i, r, n)
			default:
				fmt.Fprintf(&b, "rsd op=Barrier site=%d ranks=%d comm=1 csize=%d peer=- tag=0 size=0 root=-1\n", i, sub[i%len(sub)], len(sub))
			}
		}
		return b.Bytes()
	}
	decode := func(text []byte) time.Duration {
		start := time.Now()
		if _, err := Decode(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	small, large := upload(16), upload(1<<18)
	decode(small) // warm up
	ds, dl := decode(small), decode(large)
	t.Logf("%d leaves: %v at 16 ranks (%d KB), %v at 2^18 ranks (%d KB)", leaves, ds, len(small)>>10, dl, len(large)>>10)
	// The large document is ~1.5x the small one's bytes; allow for that, the
	// member lists and rank bitmap of the larger world, and noise.
	if bound := 6 * ds * time.Duration(len(large)) / time.Duration(len(small)); dl > bound {
		t.Fatalf("decoding at 2^18 ranks took %v, over %v (6x the 16-rank decode per byte): the rules cost more than the document", dl, bound)
	}

	// XOR sends on a world of 2^20-1 ranks, not a power of two, each leaf
	// naming all but the last rank in 90 bytes. Walked rank by rank, 300
	// such leaves took 6 s where 10 took 0.4 s; settled from the ends of
	// each run, they cost their bytes.
	xor := func(leaves int) []byte {
		const n = 1<<20 - 1
		var b bytes.Buffer
		fmt.Fprintf(&b, "scalatrace-go 1\nnprocs %d\ncomms 1\ncomm 0 %s\ngroups 1\ngroup 0:%d %d\n", n, intsString(worldComms(n)[0]), n-1, leaves)
		for i := 0; i < leaves; i++ {
			fmt.Fprintf(&b, "rsd op=Send site=%d ranks=0:%d comm=0 csize=%d peer=xor1 tag=0 size=8 root=-1\n", i, n-2, n)
		}
		return b.Bytes()
	}
	small, large = xor(10), xor(300)
	ds, dl = decode(small), decode(large)
	t.Logf("XOR leaves: 10 in %v (%d KB), 300 in %v (%d KB)", ds, len(small)>>10, dl, len(large)>>10)
	if bound := 6 * ds * time.Duration(len(large)) / time.Duration(len(small)); dl > bound {
		t.Fatalf("decoding 300 XOR leaves took %v, over %v (6x the 10-leaf decode per byte): the rules walk the leaves' ranks", dl, bound)
	}
}

// TestDecodeRefusesAnUnboundedRuleWalk: XOR sends on a communicator that
// lists the world in reverse, of an odd size, so that no bound settles them
// and each leaf's 65,534 ranks are walked one by one. Ten leaves are within
// the walk budget of the document; three hundred are refused by name once
// the budget is spent, in the time the budget allows.
func TestDecodeRefusesAnUnboundedRuleWalk(t *testing.T) {
	const n = 1<<16 - 1
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	world, back := intsString(worldComms(n)[0]), intsString(reversed)
	upload := func(leaves int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "scalatrace-go 1\nnprocs %d\ncomms 2\ncomm 0 %s\ncomm 1 %s\ngroups 1\ngroup 0:%d %d\n", n, world, back, n-1, leaves)
		for i := 0; i < leaves; i++ {
			fmt.Fprintf(&b, "rsd op=Send site=%d ranks=1:%d comm=1 csize=%d peer=xor1 tag=0 size=8 root=-1\n", i, n-1, n)
		}
		return b.Bytes()
	}
	start := time.Now()
	if _, err := Decode(bytes.NewReader(upload(10))); err != nil {
		t.Fatalf("10 leaves: %v", err)
	}
	ten := time.Since(start)
	start = time.Now()
	_, err := Decode(bytes.NewReader(upload(300)))
	many := time.Since(start)
	t.Logf("10 leaves accepted in %v; 300 refused in %v: %v", ten, many, err)
	if err == nil || !strings.Contains(err.Error(), "one by one") {
		t.Fatalf("300 leaves: err = %v, want the walk budget's refusal", err)
	}
	// The budget is one rank per byte: 770 KB, 11 leaves.
	if many > 10*ten {
		t.Fatalf("refusing took %v, over 10x the %v of ten walked leaves", many, ten)
	}
}

// TestDecodeOfWideRankSetsIsLinearInTheDocument is the cost row of the rank
// sets Decode parses: 10,000 leaves each naming every rank of a world of
// 2^20 allocate, per byte of the document, what leaves of a 16-rank world do.
// Expanded and packed again, each of the wide sets would cost 8 MB.
func TestDecodeOfWideRankSetsIsLinearInTheDocument(t *testing.T) {
	const leaves = 10000
	upload := func(n int) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, "scalatrace-go 1\nnprocs %d\ncomms 1\ncomm 0 %s\ngroups 1\ngroup 0:%d %d\n", n, intsString(worldComms(n)[0]), n-1, leaves)
		for i := 0; i < leaves; i++ {
			op := [...]string{"Barrier", "Allreduce"}[i%2]
			fmt.Fprintf(&b, "rsd op=%s site=%d ranks=0:%d comm=0 csize=%d peer=- tag=0 size=8 root=-1\n", op, i, n-1, n)
		}
		return b.Bytes()
	}
	perByte := func(text []byte) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Decode(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(text))
	}
	small, large := perByte(upload(16)), perByte(upload(1<<20))
	t.Logf("allocated per document byte: %.1f B at 16 ranks, %.1f B at 2^20 ranks", small, large)
	if large > 4*small {
		t.Fatalf("decoding at 2^20 ranks allocated %.1f B per document byte, over 4x the %.1f B at 16 ranks: a rank set costs more than its text", large, small)
	}
}

// TestDecodeRefusesNonCanonicalRankSetsUnexpanded is the cost row of rank-set
// text String does not print: 10,000 leaves each spelling 2^20 ranks
// "0:1048575:1" are refused at the first, which is not expanded (8 MB).
func TestDecodeRefusesNonCanonicalRankSetsUnexpanded(t *testing.T) {
	const leaves = 10000
	var b bytes.Buffer
	fmt.Fprintf(&b, "scalatrace-go 1\nnprocs 16\ncomms 1\ncomm 0 %s\ngroups 1\ngroup 0:15 %d\n", intsString(worldComms(16)[0]), leaves)
	for i := 0; i < leaves; i++ {
		fmt.Fprintf(&b, "rsd op=Barrier site=%d ranks=0:1048575:1 comm=0 csize=16 peer=- tag=0 size=8 root=-1\n", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(&b)
	runtime.ReadMemStats(&after)
	want := `trace: line 7: bad ranks value "0:1048575:1": taskset: "0:1048575:1" is not canonical (String prints "0:1048575")`
	if err == nil || err.Error() != want {
		t.Fatalf("Decode: %v, want %s", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing the document allocated %d B: a rank set was expanded", alloc)
	}
}
