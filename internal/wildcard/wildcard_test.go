package wildcard

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
	"repro/internal/trace"
)

func collect(t *testing.T, n int, body func(*mpi.Rank)) *trace.Trace {
	t.Helper()
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

// eventsOf expands rank's events in t, each aliasing the leaf it came from.
func eventsOf(t *trace.Trace, rank int) []*trace.RSD {
	var out []*trace.RSD
	for c := trace.Lower(t).Cursor(rank); !c.Done(); c.Advance() {
		out = append(out, c.Cur())
	}
	return out
}

func wildcardCount(tr *trace.Trace) int {
	count := 0
	for _, g := range tr.Groups {
		trace.Leaves(g.Seq, func(r *trace.RSD) {
			if r.Wildcard || r.Peer.Kind == trace.ParamAny {
				count++
			}
		})
	}
	return count
}

func TestPresent(t *testing.T) {
	with := collect(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, 0, 8)
		} else {
			r.Send(r.World(), 0, 0, 8)
		}
	})
	if !Present(with) {
		t.Fatal("wildcard not detected")
	}
	without := collect(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), 1, 0, 8)
		} else {
			r.Send(r.World(), 0, 0, 8)
		}
	})
	if Present(without) {
		t.Fatal("false positive wildcard detection")
	}
}

func TestResolveSimpleWildcard(t *testing.T) {
	tr := collect(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, 0, 64)
		} else {
			r.Send(r.World(), 0, 0, 64)
		}
	})
	out, err := Resolve(tr)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if wildcardCount(out) != 0 {
		t.Fatalf("wildcards remain:\n%s", out)
	}
	// The receive must now name source 1.
	var recv *trace.RSD
	for _, g := range out.Groups {
		trace.Leaves(g.Seq, func(r *trace.RSD) {
			if r.Op == mpi.OpRecv {
				recv = r
			}
		})
	}
	if recv == nil || recv.Peer != trace.AbsParam(1) {
		t.Fatalf("recv peer = %v, want abs1", recv)
	}
}

func TestResolveStarPattern(t *testing.T) {
	// Rank 0 receives n-1 wildcard messages; resolution must assign each
	// receive a distinct concrete sender covering all senders.
	n := 6
	tr := collect(t, n, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 32)
			}
		} else {
			r.Send(r.World(), 0, 0, 32)
		}
	})
	out, err := Resolve(tr)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if wildcardCount(out) != 0 {
		t.Fatalf("wildcards remain:\n%s", out)
	}
	srcs := map[int]bool{}
	for _, ev := range eventsOf(out, 0) {
		if ev.Op == mpi.OpRecv {
			if ev.Peer.Kind != trace.ParamAbs {
				t.Fatalf("unresolved peer %v", ev.Peer)
			}
			srcs[ev.Peer.Value] = true
		}
	}
	if len(srcs) != n-1 {
		t.Fatalf("resolved to %d distinct sources, want %d", len(srcs), n-1)
	}
}

func TestResolveLUStyleStencil(t *testing.T) {
	// The NPB LU pattern of Section 4.4: nonblocking wildcard receives from
	// 2-D stencil neighbors, repeated over iterations.
	n := 4 // 2x2 grid
	tr := collect(t, n, func(r *mpi.Rank) {
		c := r.World()
		me := r.Rank()
		row, col := me/2, me%2
		north, south := -1, -1
		if row > 0 {
			north = me - 2
		}
		if row < 1 {
			south = me + 2
		}
		east, west := -1, -1
		if col < 1 {
			east = me + 1
		}
		if col > 0 {
			west = me - 1
		}
		for iter := 0; iter < 5; iter++ {
			var reqs []*mpi.Request
			for _, nb := range []int{north, south, east, west} {
				if nb >= 0 {
					reqs = append(reqs, r.Irecv(c, mpi.AnySource, iter, 512))
				}
			}
			for _, nb := range []int{north, south, east, west} {
				if nb >= 0 {
					reqs = append(reqs, r.Isend(c, nb, iter, 512))
				}
			}
			r.Waitall(reqs...)
		}
	})
	if !Present(tr) {
		t.Fatal("premise: trace should contain wildcards")
	}
	out, err := Resolve(tr)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if wildcardCount(out) != 0 {
		t.Fatalf("wildcards remain:\n%s", out)
	}
	// Event counts per rank unchanged.
	for rank := 0; rank < n; rank++ {
		if got, want := len(eventsOf(out, rank)), len(eventsOf(tr, rank)); got != want {
			t.Fatalf("rank %d: %d events after resolve, want %d", rank, got, want)
		}
	}
	// Each rank's resolved receive sources must be exactly its neighbors.
	for rank := 0; rank < n; rank++ {
		want := map[int]bool{}
		row, col := rank/2, rank%2
		if row > 0 {
			want[rank-2] = true
		}
		if row < 1 {
			want[rank+2] = true
		}
		if col > 0 {
			want[rank-1] = true
		}
		if col < 1 {
			want[rank+1] = true
		}
		got := map[int]bool{}
		for _, ev := range eventsOf(out, rank) {
			if ev.Op == mpi.OpIrecv {
				got[ev.PeerFor(rank, out)] = true
			}
		}
		for nb := range want {
			if !got[nb] {
				t.Fatalf("rank %d missing resolved source %d (got %v)", rank, nb, got)
			}
		}
		for nb := range got {
			if !want[nb] {
				t.Fatalf("rank %d resolved to non-neighbor %d", rank, nb)
			}
		}
	}
}

func TestResolveKeepsNonWildcardTracesIntact(t *testing.T) {
	n := 4
	body := func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < 3; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 100)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 100)
			r.Waitall(rq, sq)
		}
		r.Allreduce(c, 8)
	}
	tr := collect(t, n, body)
	out, err := Resolve(tr)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if out.TotalEvents() != tr.TotalEvents() {
		t.Fatalf("event count changed: %d -> %d", tr.TotalEvents(), out.TotalEvents())
	}
	for rank := 0; rank < n; rank++ {
		a, b := eventsOf(tr, rank), eventsOf(out, rank)
		for i := range a {
			if a[i].Op != b[i].Op || a[i].Size != b[i].Size {
				t.Fatalf("rank %d event %d changed: %v -> %v", rank, i, a[i], b[i])
			}
		}
	}
}

// figure5Trace reproduces the paper's Figure 5(b): the trace ordering that
// makes Algorithm 2 detect a potential deadlock.
func figure5Trace() *trace.Trace {
	leaf := func(op mpi.Op, rank int, peer trace.Param, wild bool) *trace.RSD {
		return &trace.RSD{Op: op, Ranks: taskset.Of(rank), CommID: 0, CommSize: 3,
			Peer: peer, Wildcard: wild, Size: 8, Root: -1}
	}
	fin := func(rank int) *trace.RSD {
		return &trace.RSD{Op: mpi.OpFinalize, Ranks: taskset.Of(rank), CommID: 0,
			CommSize: 3, Root: -1}
	}
	return &trace.Trace{
		N:     3,
		Comms: map[int][]int{0: {0, 1, 2}},
		Groups: []trace.Group{
			{Ranks: taskset.Of(0), Seq: []trace.Node{
				leaf(mpi.OpSend, 0, trace.AbsParam(1), false), fin(0),
			}},
			{Ranks: taskset.Of(1), Seq: []trace.Node{
				leaf(mpi.OpRecv, 1, trace.AnyParam, true),
				leaf(mpi.OpRecv, 1, trace.AbsParam(0), false), fin(1),
			}},
			{Ranks: taskset.Of(2), Seq: []trace.Node{
				leaf(mpi.OpSend, 2, trace.AbsParam(1), false), fin(2),
			}},
		},
	}
}

func TestResolveDetectsFigure5Deadlock(t *testing.T) {
	_, err := Resolve(figure5Trace())
	if err == nil {
		t.Fatal("Figure 5 deadlock not detected")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T %v, want *DeadlockError", err, err)
	}
	if len(de.Blocked) == 0 {
		t.Fatal("deadlock report names no blocked ranks")
	}
}

// crossCommText is a trace the engine no longer produces: rank 2, alone after
// the split, sends on the world to rank 0, which waits on its half of the
// split for any source with that tag.
const crossCommText = "scalatrace-go 1\nnprocs 3\ncomms 3\ncomm 0 0,1,2\ncomm 1 0,1\ncomm 2 2\ngroups 3\n" +
	"group 0 2\n" +
	"rsd op=CommSplit site=1 ranks=0 comm=0 csize=3 peer=- tag=0 size=0 root=-1 newcomm=1 group=0,1\n" +
	"rsd op=Recv site=2 ranks=0 comm=1 csize=2 peer=any tag=5 size=8 root=-1 wildcard=1\n" +
	"group 1 1\n" +
	"rsd op=CommSplit site=1 ranks=1 comm=0 csize=3 peer=- tag=0 size=0 root=-1 newcomm=1 group=0,1\n" +
	"group 2 2\n" +
	"rsd op=CommSplit site=1 ranks=2 comm=0 csize=3 peer=- tag=0 size=0 root=-1 newcomm=2 group=2\n" +
	"rsd op=Send site=3 ranks=2 comm=0 csize=3 peer=abs0 tag=5 size=8 root=-1\n"

// TestAssignMatchesWithinACommunicator: a message matches only receives on
// its own communicator, so rank 0's wildcard receive has no sender, and the
// report names the communicator the receive waits on.
func TestAssignMatchesWithinACommunicator(t *testing.T) {
	tr, err := trace.Decode(strings.NewReader(crossCommText))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	pins, err := Assign(tr)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Assign = %v, %v; want a *DeadlockError", pins, err)
	}
	const want = "rank 0 blocked on Recv (peer any, tag 5, comm 1)"
	if got := strings.Join(de.Blocked, "; "); got != want {
		t.Errorf("Blocked = %q, want %q", got, want)
	}
}

func TestResolveDeterministic(t *testing.T) {
	// Two resolutions of the same trace must agree (reproducibility is the
	// entire point of Section 4.4).
	n := 5
	tr := collect(t, n, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				r.Recv(r.World(), mpi.AnySource, 0, 16)
			}
		} else {
			r.Send(r.World(), 0, 0, 16)
		}
	})
	a, err := Resolve(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(tr)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := eventsOf(a, 0), eventsOf(b, 0)
	if len(ea) != len(eb) {
		t.Fatalf("lengths differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Peer != eb[i].Peer {
			t.Fatalf("event %d resolved differently: %v vs %v", i, ea[i].Peer, eb[i].Peer)
		}
	}
}

func TestResolveRespectsFIFOPerSender(t *testing.T) {
	// One sender sends two differently-sized messages; two wildcard
	// receives must resolve in FIFO order (sizes 111 then 222).
	tr := collect(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, 0, 111)
			r.Recv(r.World(), mpi.AnySource, 0, 222)
		} else {
			r.Send(r.World(), 0, 0, 111)
			r.Send(r.World(), 0, 0, 222)
		}
	})
	out, err := Resolve(tr)
	if err != nil {
		t.Fatal(err)
	}
	evs := eventsOf(out, 0)
	var recvs []*trace.RSD
	for _, ev := range evs {
		if ev.Op == mpi.OpRecv {
			recvs = append(recvs, ev)
		}
	}
	if len(recvs) != 2 {
		t.Fatalf("got %d receives", len(recvs))
	}
	for _, rv := range recvs {
		if rv.Peer != trace.AbsParam(1) {
			t.Fatalf("recv peer = %v", rv.Peer)
		}
	}
}

func TestResolvePropertyRandomStars(t *testing.T) {
	// Property: for random star/gather patterns with wildcard receives,
	// resolution (1) leaves no wildcards, (2) preserves per-rank event
	// counts, and (3) assigns each receive a sender that really sent.
	f := func(nRaw, msgsRaw uint8) bool {
		n := int(nRaw%6) + 2
		msgs := int(msgsRaw%3) + 1
		tr := collectQ(n, func(r *mpi.Rank) {
			if r.Rank() == 0 {
				for i := 0; i < (n-1)*msgs; i++ {
					r.Recv(r.World(), mpi.AnySource, 0, 16)
				}
			} else {
				for i := 0; i < msgs; i++ {
					r.Send(r.World(), 0, 0, 16)
				}
			}
		})
		if tr == nil {
			return false
		}
		out, err := Resolve(tr)
		if err != nil {
			return false
		}
		if wildcardCount(out) != 0 {
			return false
		}
		counts := map[int]int{}
		for _, ev := range eventsOf(out, 0) {
			if ev.Op == mpi.OpRecv {
				if ev.Peer.Kind != trace.ParamAbs {
					return false
				}
				counts[ev.Peer.Value]++
			}
		}
		for src := 1; src < n; src++ {
			if counts[src] != msgs {
				return false
			}
		}
		return len(eventsOf(out, 0)) == len(eventsOf(tr, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func collectQ(n int, body func(*mpi.Rank)) *trace.Trace {
	col := trace.NewCollector(n)
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		return nil
	}
	return col.Trace()
}

// TestResolveNamesCollectiveMismatchAsAlign: when a member arrives at a
// collective other than the one the members before it stand at, Algorithm 2
// refuses the trace with Algorithm 1's words.
func TestResolveNamesCollectiveMismatchAsAlign(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"Barrier vs Allreduce on the world", "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 2\n" +
			"group 0 1\nrsd op=Barrier site=1 ranks=0 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n" +
			"group 1 1\nrsd op=Allreduce site=2 ranks=1 comm=0 csize=2 peer=- tag=0 size=8 root=-1\n",
			"collective mismatch on comm 0: Barrier vs Allreduce"},
	} {
		tr, err := trace.Decode(strings.NewReader(tc.text))
		if err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		_, errAssign := Assign(tr)
		_, errAlign := align.Align(tr)
		for _, err := range []error{errAssign, errAlign} {
			if err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want) {
				t.Errorf("%s: Assign: %v; Align: %v; want both to end %q", tc.name, errAssign, errAlign, tc.want)
			}
		}
	}
}
