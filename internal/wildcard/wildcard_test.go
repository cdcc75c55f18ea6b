package wildcard

import (
	"errors"
	"testing"
	"testing/quick"

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
	for _, ev := range out.EventsOf(0) {
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
		if got, want := len(out.EventsOf(rank)), len(tr.EventsOf(rank)); got != want {
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
		for _, ev := range out.EventsOf(rank) {
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
		a, b := tr.EventsOf(rank), out.EventsOf(rank)
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
	ea, eb := a.EventsOf(0), b.EventsOf(0)
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
	evs := out.EventsOf(0)
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
		for _, ev := range out.EventsOf(0) {
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
		return len(out.EventsOf(0)) == len(tr.EventsOf(0))
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
