package align

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// This file holds the oracle that needs no recorded answer: the pass run on
// lockstep classes against the same pass run one rank per class — the
// paper's Algorithm 1 — on whatever trace it is given. They must agree on
// every line of their encodings, or on the error.

// singletonClasses is the partition into single ranks: the traversal of the
// paper's Algorithm 1, one context per node.
func singletonClasses(t *trace.Trace, _ []int) []int {
	class := make([]int, t.N)
	for r := range class {
		class[r] = r
	}
	return class
}

func lockstepVsPerRank(t *testing.T, label string, tr *trace.Trace) {
	t.Helper()
	got, gotErr := Align(tr)
	want, wantErr := alignWith(tr, singletonClasses, trace.NewStreamBuilder)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: lockstep classes fail with %v, single ranks with %v", label, gotErr, wantErr)
		}
		return
	}
	sameTrace(t, label, got, want)
}

// groupsOf returns, per rank, the index of the first group that holds it.
func groupsOf(tr *trace.Trace) []int {
	groupOf := make([]int, tr.N)
	for r := range groupOf {
		groupOf[r] = slices.IndexFunc(tr.Groups, func(g trace.Group) bool { return g.Ranks.Contains(r) })
	}
	return groupOf
}

// classCount returns the number of lockstep classes of tr.
func classCount(t testing.TB, tr *trace.Trace) int {
	t.Helper()
	classes := 0
	for _, c := range lockstepClasses(tr, groupsOf(tr)) {
		classes = max(classes, c+1)
	}
	return classes
}

func TestLockstepEqualsPerRank(t *testing.T) {
	shared := false
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		for _, n := range []int{4, 8, 16, 36, 64} {
			if n < app.MinRanks || app.ValidRanks != nil && !app.ValidRanks(n) {
				continue
			}
			for _, class := range []apps.Class{apps.ClassS, apps.ClassA} {
				if testing.Short() && (class == apps.ClassA || n > 16) {
					continue
				}
				tr := alignInput(t, name, n, class)
				shared = shared || classCount(t, tr) < n
				lockstepVsPerRank(t, fmt.Sprintf("%s-%d/%c", name, n, class), tr)
			}
		}
	}
	if !shared {
		t.Fatal("no kernel has a class of two ranks: the comparison is of the per-rank pass with itself")
	}
	lockstepVsPerRank(t, "split-12", collect(t, 12, splitBody))
}

// rsd is a world-communicator leaf of the hand-built traces below.
func rsd(op mpi.Op, ranks taskset.Set, n int) *trace.RSD {
	r := &trace.RSD{Op: op, Site: uint64(op), Ranks: ranks, CommSize: n, Root: -1}
	if op.IsPointToPoint() {
		r.Peer, r.Size = trace.RelParam(1), 8
	}
	return r
}

// hostileTraces are traces no Collector writes that Decode accepts from an
// upload. (A rank in two groups or in none, a leaf naming ranks outside its
// group, a collective on an unlisted communicator or one that omits its
// caller, a communicator that repeats a member and an empty world are
// Decode's refusals, TestDecodeRejectsHostileInput's rows.)
func hostileTraces() map[string]*trace.Trace {
	all := taskset.Range(0, 3)
	world := map[int][]int{0: {0, 1, 2, 3}}
	exchange := func(ranks taskset.Set) []trace.Node {
		return []trace.Node{rsd(mpi.OpSend, ranks, 4), rsd(mpi.OpRecv, ranks, 4)}
	}
	one := func(seq ...trace.Node) []trace.Group { return []trace.Group{{Ranks: all, Seq: seq}} }
	vector := rsd(mpi.OpSend, taskset.Of(0, 1), 4)
	vector.Peer, vector.PeerVec = trace.VecParam, []int{3, 2}
	// withPeer is a send of the given ranks that differs from rsd's in its
	// peer alone.
	withPeer := func(ranks taskset.Set, peer trace.Param, vec ...int) *trace.RSD {
		r := rsd(mpi.OpSend, ranks, 4)
		r.Peer, r.PeerVec = peer, vec
		return r
	}
	// A sub-communicator of ranks 0 and 2, in reverse order.
	sub := func(op mpi.Op) *trace.RSD {
		r := &trace.RSD{Op: op, Site: uint64(op), Ranks: taskset.Of(0, 2), CommID: 1, CommSize: 2, Root: -1, Size: 8}
		r.Peer, r.PeerVec = trace.VecParam, []int{0, 1}
		return r
	}
	return map[string]*trace.Trace{
		"loops of zero iterations": {N: 4, Comms: world, Groups: one(
			&trace.Loop{Iters: 0, Body: []trace.Node{rsd(mpi.OpAllreduce, taskset.Of(0, 2), 4)}},
			&trace.Loop{Iters: 3, Body: append(exchange(taskset.Of(0, 1, 2)), &trace.Loop{Iters: 0, Body: exchange(all)})},
			rsd(mpi.OpSend, taskset.Of(3), 4),
			rsd(mpi.OpBarrier, all, 4),
		)},
		"vector peers": {N: 4, Comms: world, Groups: one(
			vector, rsd(mpi.OpRecv, taskset.Of(2, 3), 4), rsd(mpi.OpBarrier, all, 4),
		)},
		// Every rank is in both leaves, whose peers are equal for ranks 0 and
		// 2 (six equal sends, one loop of one) and differ for 1 and 3 (a loop
		// of two sends): the vector peers split the ranks into two classes.
		"vector peers equal for some ranks": {N: 4, Comms: world, Groups: one(
			&trace.Loop{Iters: 3, Body: []trace.Node{
				withPeer(all, trace.VecParam, 1, 2, 3, 0),
				withPeer(all, trace.VecParam, 1, 3, 3, 1),
			}},
			rsd(mpi.OpBarrier, all, 4),
		)},
		// The vector peer is the absolute one's for ranks 0 and 1, not for 2.
		"a vector peer equal to an absolute one": {N: 4, Comms: world, Groups: one(
			&trace.Loop{Iters: 3, Body: []trace.Node{
				withPeer(taskset.Range(0, 2), trace.VecParam, 3, 3, 0),
				withPeer(taskset.Range(0, 2), trace.AbsParam(3)),
			}},
			rsd(mpi.OpBarrier, all, 4),
		)},
		"vector peers on a sub-communicator": {N: 4, Comms: map[int][]int{0: {0, 1, 2, 3}, 1: {2, 0}}, Groups: one(
			&trace.Loop{Iters: 2, Body: []trace.Node{sub(mpi.OpSend), sub(mpi.OpRecv)}},
			rsd(mpi.OpAllreduce, all, 4),
			sub(mpi.OpSend),
			rsd(mpi.OpBarrier, all, 4),
		)},
		// Ranks 0 and 1 wait on one communicator, 2 and 3 on a permutation
		// of it: which rank the error names depends on the order of visits.
		"classes stuck on two world-sized communicators": {N: 4, Comms: map[int][]int{0: {0, 1, 2, 3}, 1: {1, 0, 2, 3}}, Groups: one(
			rsd(mpi.OpBarrier, taskset.Of(0, 1), 4),
			&trace.RSD{Op: mpi.OpBarrier, Ranks: taskset.Of(2, 3), CommID: 1, CommSize: 4, Root: -1},
		)},
		"classes disagree on the collective": {N: 4, Comms: world, Groups: one(
			rsd(mpi.OpSend, taskset.Of(1, 3), 4),
			rsd(mpi.OpBarrier, taskset.Of(1, 3), 4),
			rsd(mpi.OpAllreduce, taskset.Of(0, 2), 4),
		)},
		"a class ends before the others' collective": {N: 4, Comms: world, Groups: one(
			rsd(mpi.OpSend, taskset.Of(0, 1), 4),
			rsd(mpi.OpBarrier, taskset.Of(2, 3), 4),
		)},
	}
}

// TestLockstepEqualsPerRankOnHostileTraces: on every hostile trace the
// lockstep classes and one rank per class give equal traces or equal errors.
// Each trace is one Decode accepts; the three that stop the rendezvous (two
// world-sized communicators, a disagreement on the collective, a class that
// ends early) are Align's to reject.
func TestLockstepEqualsPerRankOnHostileTraces(t *testing.T) {
	failed := 0
	for name, tr := range hostileTraces() {
		var text bytes.Buffer
		if err := trace.Encode(&text, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Decode(&text); err != nil {
			t.Errorf("%s: Decode refuses it: %v", name, err)
		}
		lockstepVsPerRank(t, name, tr)
		if _, err := Align(tr); err != nil {
			t.Logf("%s: %v", name, err)
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("%d of the hostile traces are rejected, want 3", failed)
	}
}

// eventsWithin reports whether one rank's walk of seq stays within budget
// events, without multiplying out loop counts that would overflow.
func eventsWithin(seq []trace.Node, budget int) bool {
	var count func(seq []trace.Node, times int) bool
	count = func(seq []trace.Node, times int) bool {
		for _, n := range seq {
			switch x := n.(type) {
			case *trace.RSD:
				budget -= times
			case *trace.Loop:
				if x.Iters > 0 && (x.Iters > budget/times || !count(x.Body, times*x.Iters)) {
					return false
				}
			}
			if budget < 0 {
				return false
			}
		}
		return true
	}
	return count(seq, 1)
}

// FuzzAlignLockstep feeds whatever trace.Decode accepts to the comparison:
// equal traces or equal errors, never a panic. The seeds are FuzzDecode's
// hand-written documents that hold events, encoded traces of bodies that
// need Algorithm 1, and the hostile traces, whose vector peers reach the
// class rule's pairs of leaves equal but for their peers.
func FuzzAlignLockstep(f *testing.F) {
	addTrace := func(tr *trace.Trace) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, body := range []func(*mpi.Rank){figure3Body, splitBody} {
		addTrace(collect(f, 12, body))
	}
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 0 0,1,2,3\ncomm 1 0,2\ngroups 1\n" +
		"group 0:3 2\n" +
		"loop 7 1\n" +
		"rsd op=Recv site=9 ranks=0:3 comm=0 csize=4 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Alltoallv site=4 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=16 root=-1 counts=4,4,4,4\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
		"rsd op=Send site=3 ranks=0:1 comm=0 csize=2 peer=rel1 tag=5 size=8 root=-1 compute=\"v1 10 2 5.5 30.25\"\n"))
	f.Add([]byte("# comment\nscalatrace-go 1\nnprocs 1\ncomms 1\ncomm 0 0\ngroups 1\ngroup 0 1\n" +
		"rsd op=Init site=0 ranks=0 comm=0 csize=1 peer=- tag=0 size=0 root=-1\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 3\n" +
		"group 0 1\nrsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 2 1\nrsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 1 2\nrsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 0 0,1,2,3\ncomm 1 3,1,2,0\ngroups 1\ngroup 0:3 3\n" +
		"loop 5 3\n" +
		"rsd op=Irecv site=10 ranks=0:3 comm=0 csize=4 peer=any tag=500 size=40 root=-1 wildcard=1\n" +
		"rsd op=Send site=11 ranks=0:2 comm=0 csize=4 peer=rel1 tag=500 size=40 root=-1\n" +
		"rsd op=Waitall site=12 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n" +
		"rsd op=Barrier site=13 ranks=0:2:2 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n" +
		"rsd op=Barrier site=14 ranks=1:3:2 comm=1 csize=4 peer=- tag=0 size=0 root=-1\n"))
	hostile := hostileTraces()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		addTrace(hostile[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || tr.N > 32 {
			return
		}
		for _, g := range tr.Groups {
			if !eventsWithin(g.Seq, 1<<12) {
				return
			}
		}
		lockstepVsPerRank(t, "decoded trace", tr)
	})
}
