package mpi

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// run is a test helper executing body with a short deadlock timeout.
func run(t *testing.T, n int, m *netmodel.Model, body func(*Rank), opts ...Option) *Result {
	t.Helper()
	opts = append(opts, WithTimeout(20*time.Second))
	res, err := Run(n, m, body, opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunRejectsBadSize(t *testing.T) {
	if _, err := Run(0, nil, func(*Rank) {}); err == nil {
		t.Fatal("Run(0) should fail")
	}
	if _, err := Run(-3, nil, func(*Rank) {}); err == nil {
		t.Fatal("Run(-3) should fail")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	res := run(t, 1, netmodel.Ideal(), func(r *Rank) {
		r.Compute(100)
		r.Compute(-5) // ignored
		r.Compute(0.5)
	})
	if math.Abs(res.ElapsedUS-100.5) > 1e-9 {
		t.Fatalf("elapsed = %v, want 100.5", res.ElapsedUS)
	}
}

func TestSendRecvBasic(t *testing.T) {
	var status Status
	run(t, 2, netmodel.BlueGeneL(), func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(r.World(), 1, 7, 1024)
		case 1:
			status = r.Recv(r.World(), 0, 7, 1024)
		}
	})
	if status.Source != 0 || status.Tag != 7 || status.Size != 1024 {
		t.Fatalf("status = %+v", status)
	}
}

func TestRecvWaitsForArrival(t *testing.T) {
	// Receiver posts immediately; completion must include wire latency.
	m := netmodel.BlueGeneL()
	res := run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(50)
			r.Send(r.World(), 1, 0, 100)
		} else {
			r.Recv(r.World(), 0, 0, 100)
		}
	})
	// Rank 1 cannot finish before 50 (sender compute) + overheads + wire.
	min := 50 + m.SendOverheadUS + m.TransferUS(100) + m.RecvOverheadUS
	if res.PerRankUS[1] < min-1e-9 {
		t.Fatalf("receiver clock %v < physically possible %v", res.PerRankUS[1], min)
	}
}

func TestUnexpectedMessagePenalty(t *testing.T) {
	// A late receiver pays the unexpected-queue copy; an early receiver
	// does not. Compare the two receive costs.
	m := netmodel.BlueGeneL()
	var lateCost, earlyCost float64
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 512)
		} else {
			r.Compute(1e6) // message is long since arrived: unexpected
			before := r.Clock()
			r.Recv(r.World(), 0, 0, 512)
			lateCost = r.Clock() - before
		}
	})
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(1e6)
			r.Send(r.World(), 1, 0, 512)
		} else {
			before := r.Clock()
			r.Recv(r.World(), 0, 0, 512)             // posted long before arrival: expected
			earlyCost = r.Clock() - before - 1e6 + 0 // completion ≈ arrival
			_ = earlyCost
		}
	})
	wantPenalty := m.UnexpectedCopyUS(512)
	if math.Abs(lateCost-(m.RecvOverheadUS+wantPenalty)) > 1e-9 {
		t.Fatalf("late receive cost %v, want overhead+penalty %v",
			lateCost, m.RecvOverheadUS+wantPenalty)
	}
}

func TestMessageOrderingPerPeer(t *testing.T) {
	// Non-overtaking: two same-tag messages from one sender must be
	// received in send order.
	var sizes []int
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 5, 111)
			r.Send(r.World(), 1, 5, 222)
		} else {
			s1 := r.Recv(r.World(), 0, 5, 0)
			s2 := r.Recv(r.World(), 0, 5, 0)
			sizes = []int{s1.Size, s2.Size}
		}
	})
	if sizes[0] != 111 || sizes[1] != 222 {
		t.Fatalf("receive order = %v, want [111 222]", sizes)
	}
}

func TestTagSelectivity(t *testing.T) {
	// Receiver asks for tag 9 first even though tag 3 arrived first.
	var first, second Status
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 3, 30)
			r.Send(r.World(), 1, 9, 90)
		} else {
			r.Compute(10) // let both arrive
			first = r.Recv(r.World(), 0, 9, 0)
			second = r.Recv(r.World(), 0, 3, 0)
		}
	})
	if first.Size != 90 || second.Size != 30 {
		t.Fatalf("tag-selective receive got %d then %d", first.Size, second.Size)
	}
}

func TestAnySourceReceivesAll(t *testing.T) {
	n := 5
	got := map[int]bool{}
	run(t, n, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			for i := 1; i < n; i++ {
				s := r.Recv(r.World(), AnySource, 0, 8)
				got[s.Source] = true
				if s.SourceWorld != s.Source {
					t.Errorf("world comm: SourceWorld %d != Source %d", s.SourceWorld, s.Source)
				}
			}
		} else {
			r.Send(r.World(), 0, 0, 8)
		}
	})
	if len(got) != n-1 {
		t.Fatalf("wildcard received from %d senders, want %d", len(got), n-1)
	}
}

func TestAnyTag(t *testing.T) {
	var s Status
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 42, 16)
		} else {
			s = r.Recv(r.World(), 0, AnyTag, 16)
		}
	})
	if s.Tag != 42 {
		t.Fatalf("AnyTag matched tag %d", s.Tag)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	// Classic halo pattern: everyone exchanges with both ring neighbors.
	n := 8
	res := run(t, n, netmodel.BlueGeneL(), func(r *Rank) {
		c := r.World()
		left := (r.Rank() + n - 1) % n
		right := (r.Rank() + 1) % n
		for iter := 0; iter < 10; iter++ {
			rl := r.Irecv(c, left, 0, 4096)
			rr := r.Irecv(c, right, 1, 4096)
			sl := r.Isend(c, left, 1, 4096)
			sr := r.Isend(c, right, 0, 4096)
			r.Waitall(rl, rr, sl, sr)
			r.Compute(100)
		}
	})
	if res.ElapsedUS <= 1000 {
		t.Fatalf("elapsed %v suspiciously small", res.ElapsedUS)
	}
}

func TestWaitSingleRequest(t *testing.T) {
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			q := r.Isend(r.World(), 1, 0, 64)
			r.Wait(q)
			if !q.Done() {
				t.Error("request not done after Wait")
			}
			r.Wait(q) // waiting twice is harmless
		} else {
			q := r.Irecv(r.World(), 0, 0, 64)
			s := r.Wait(q)
			if s.Size != 64 {
				t.Errorf("wait status size = %d", s.Size)
			}
		}
	})
}

func TestSendrecv(t *testing.T) {
	n := 4
	run(t, n, netmodel.Ideal(), func(r *Rank) {
		right := (r.Rank() + 1) % n
		left := (r.Rank() + n - 1) % n
		s := r.Sendrecv(r.World(), right, 0, 256, left, 0, 256)
		if s.Source != left {
			t.Errorf("rank %d sendrecv matched source %d, want %d", r.Rank(), s.Source, left)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	n := 4
	clocks := make([]float64, n)
	run(t, n, netmodel.BlueGeneL(), func(r *Rank) {
		r.Compute(float64(r.Rank()) * 1000)
		r.Barrier(r.World())
		clocks[r.Rank()] = r.Clock()
	})
	for i := 1; i < n; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 3000 {
		t.Fatalf("barrier completed before slowest arrival: %v", clocks[0])
	}
}

// TestCollectiveWalkIsOneFrameDeeper pins what a traced collective costs every
// other operation: callSite bounds a rank's stack walks by the deepest call
// path it has met, so each frame between a wrapper and enter lengthens the
// walk of every point-to-point operation of the run. A wrapper is one frame
// (Rank.rendezvous) deeper than Send, as runCollective made it.
func TestCollectiveWalkIsOneFrameDeeper(t *testing.T) {
	var p2p, coll int
	run(t, 1, netmodel.Ideal(), func(r *Rank) {
		r.Wait(r.Isend(r.World(), 0, 0, 8))
		r.Wait(r.Isend(r.World(), 0, 0, 8)) // the first walk learns rankMain's PC, this one its depth
		p2p = r.mainDepth
		r.Barrier(r.World())
		r.CommDup(r.World())
		coll = r.mainDepth
	}, WithTracer(func(int) Tracer { return recordFunc(func(*Event) {}) }))
	if p2p == 0 || coll != p2p+1 {
		t.Fatalf("walk bound %d after point-to-point calls, %d after collectives: want one frame more", p2p, coll)
	}
}

// TestCollectivesRun runs every synchronizing operation on a 4-rank world
// twice — through the public wrapper from a coroutine body, and as the
// equivalent RankOp through a stackless cursor — and requires identical traced
// events and bit-identical clocks: both read the one table in collectives.go,
// and differ only in how they wait for the round to close.
func TestCollectivesRun(t *testing.T) {
	const n, site = 4, 0xc011
	counts := []int{64, 128, 192, 256}
	rows := []struct {
		op   RankOp
		call func(r *Rank, c *Comm)
	}{
		{RankOp{Op: OpBarrier}, func(r *Rank, c *Comm) { r.Barrier(c) }},
		{RankOp{Op: OpBcast, Root: 1, Size: 1024}, func(r *Rank, c *Comm) { r.Bcast(c, 1, 1024) }},
		{RankOp{Op: OpReduce, Root: 0, Size: 512}, func(r *Rank, c *Comm) { r.Reduce(c, 0, 512) }},
		{RankOp{Op: OpAllreduce, Size: 8}, func(r *Rank, c *Comm) { r.Allreduce(c, 8) }},
		{RankOp{Op: OpGather, Root: 2, Size: 128}, func(r *Rank, c *Comm) { r.Gather(c, 2, 128) }},
		{RankOp{Op: OpGatherv, Root: 2, Size: 96}, func(r *Rank, c *Comm) { r.Gatherv(c, 2, 96) }},
		{RankOp{Op: OpAllgather, Size: 64}, func(r *Rank, c *Comm) { r.Allgather(c, 64) }},
		{RankOp{Op: OpAllgatherv, Size: 80}, func(r *Rank, c *Comm) { r.Allgatherv(c, 80) }},
		{RankOp{Op: OpScatter, Root: 1, Size: 256}, func(r *Rank, c *Comm) { r.Scatter(c, 1, 256) }},
		{RankOp{Op: OpScatterv, Root: 1, Counts: counts}, func(r *Rank, c *Comm) { r.Scatterv(c, 1, counts) }},
		{RankOp{Op: OpAlltoall, Size: 32}, func(r *Rank, c *Comm) { r.Alltoall(c, 32) }},
		{RankOp{Op: OpAlltoallv, Counts: counts}, func(r *Rank, c *Comm) { r.Alltoallv(c, counts) }},
		{RankOp{Op: OpReduceScatter, Counts: counts[:3]}, func(r *Rank, c *Comm) { r.ReduceScatter(c, counts[:3]) }},
		{RankOp{Op: OpCommSplit, SplitColor: 1, SplitKey: 7}, func(r *Rank, c *Comm) { r.CommSplit(c, 1, 7) }},
		{RankOp{Op: OpCommDup}, func(r *Rank, c *Comm) { r.CommDup(c) }},
		// The cursor's own Finalize is stamped like rankMain's; a Finalize leaf
		// in a stream is the compute phase plus a drain of nothing.
		{RankOp{Op: OpFinalize, Site: rankMainSite}, func(r *Rank, _ *Comm) { r.Finalize() }},
	}
	traced := func(events [][]Event) Option {
		return WithTracer(func(rank int) Tracer {
			return recordFunc(func(ev *Event) {
				kept := *ev
				kept.Counts, kept.Group = slices.Clone(ev.Counts), slices.Clone(ev.Group)
				events[rank] = append(events[rank], kept)
			})
		})
	}
	compute := func(rank int) float64 { return 3 * float64(rank+1) }
	covered := map[Op]bool{}
	for _, row := range rows {
		covered[row.op.Op] = true
		op := row.op
		if op.Site == 0 {
			op.Site = site
		}
		wrapped, cursor := make([][]Event, n), make([][]Event, n)
		a := run(t, n, netmodel.BlueGeneL(), func(r *Rank) {
			r.Compute(compute(r.Rank()))
			r.SetCallSite(op.Site)
			row.call(r, r.World())
		}, traced(wrapped))
		b, err := RunStackless(n, netmodel.BlueGeneL(), func(rank int) OpStream {
			mine := op
			mine.ComputeUS = compute(rank)
			return &sliceStream{ops: []RankOp{mine}}
		}, traced(cursor))
		if err != nil {
			t.Fatalf("%v: RunStackless: %v", op.Op, err)
		}
		if !reflect.DeepEqual(wrapped, cursor) {
			t.Errorf("%v: events differ\nwrapper: %+v\ncursor:  %+v", op.Op, wrapped, cursor)
		}
		for i := range a.PerRankUS {
			if math.Float64bits(a.PerRankUS[i]) != math.Float64bits(b.PerRankUS[i]) {
				t.Errorf("%v: rank %d ends at %v through the wrapper, %v as a cursor", op.Op, i, a.PerRankUS[i], b.PerRankUS[i])
			}
		}
		if !slices.ContainsFunc(wrapped[0], func(ev Event) bool { return ev.Op == op.Op }) {
			t.Errorf("%v: rank 0 recorded %+v, the operation is not among them", op.Op, wrapped[0])
		}
	}
	for op := Op(0); op < opSentinel; op++ {
		if op.IsCollective() && !covered[op] {
			t.Errorf("%v synchronizes a communicator but has no row here", op)
		}
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	_, err := Run(2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Bcast(r.World(), 0, 8)
		} else {
			r.Reduce(r.World(), 0, 8)
		}
	}, WithTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("err = %v, want collective mismatch", err)
	}
}

func TestCommSplit(t *testing.T) {
	n := 8
	var mu sync.Mutex
	sizes := map[int]int{}
	run(t, n, netmodel.Ideal(), func(r *Rank) {
		color := r.Rank() % 2
		sub := r.CommSplit(r.World(), color, r.Rank())
		if sub == nil {
			t.Errorf("rank %d got nil subcomm", r.Rank())
			return
		}
		mu.Lock()
		sizes[sub.ID()] = sub.Size()
		mu.Unlock()
		me, ok := sub.CommRank(r.Rank())
		if !ok {
			t.Errorf("rank %d missing from its own subcomm", r.Rank())
		}
		if want := sub.WorldRank(me); want != r.Rank() {
			t.Errorf("round-trip rank mismatch: %d != %d", want, r.Rank())
		}
		// Collective on the subcommunicator.
		r.Allreduce(sub, 8)
		// Point-to-point within the subcommunicator: ring by comm rank.
		right := (me + 1) % sub.Size()
		left := (me + sub.Size() - 1) % sub.Size()
		s := r.Sendrecv(sub, right, 0, 64, left, 0, 64)
		if s.Source != left {
			t.Errorf("subcomm sendrecv matched %d, want %d", s.Source, left)
		}
	})
	if len(sizes) != 2 {
		t.Fatalf("expected 2 subcomms, got %v", sizes)
	}
	for id, sz := range sizes {
		if sz != 4 {
			t.Errorf("subcomm %d size = %d, want 4", id, sz)
		}
	}
}

func TestCommSplitUndefinedColor(t *testing.T) {
	run(t, 4, netmodel.Ideal(), func(r *Rank) {
		color := -1
		if r.Rank() < 2 {
			color = 0
		}
		sub := r.CommSplit(r.World(), color, 0)
		if r.Rank() < 2 && (sub == nil || sub.Size() != 2) {
			t.Errorf("rank %d: bad subcomm %v", r.Rank(), sub)
		}
		if r.Rank() >= 2 && sub != nil {
			t.Errorf("rank %d: expected nil subcomm", r.Rank())
		}
	})
}

func TestCommSplitKeyOrdersRanks(t *testing.T) {
	// Reverse the key so comm ranks come out reversed.
	n := 4
	run(t, n, netmodel.Ideal(), func(r *Rank) {
		sub := r.CommSplit(r.World(), 0, n-r.Rank())
		me, _ := sub.CommRank(r.Rank())
		if want := n - 1 - r.Rank(); me != want {
			t.Errorf("rank %d got comm rank %d, want %d", r.Rank(), me, want)
		}
	})
}

func TestCommDup(t *testing.T) {
	run(t, 3, netmodel.Ideal(), func(r *Rank) {
		dup := r.CommDup(r.World())
		if dup.ID() == r.World().ID() {
			t.Error("dup shares ID with parent")
		}
		if dup.Size() != 3 {
			t.Errorf("dup size = %d", dup.Size())
		}
		r.Barrier(dup)
	})
}

func TestWorldRankPanicsOutOfRange(t *testing.T) {
	_, err := Run(2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 5, 0, 1)
		}
	}, WithTimeout(5*time.Second))
	if err == nil {
		t.Fatal("expected panic error for out-of-range destination")
	}
}

func TestDeadlockDetectedByTimeout(t *testing.T) {
	_, err := Run(2, netmodel.Ideal(), func(r *Rank) {
		r.Recv(r.World(), 1-r.Rank(), 0, 8) // both block forever
	}, WithTimeout(300*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
}

func TestPanicIsReported(t *testing.T) {
	_, err := Run(1, netmodel.Ideal(), func(r *Rank) {
		panic("boom")
	}, WithTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestUseAfterFinalizePanics(t *testing.T) {
	_, err := Run(1, netmodel.Ideal(), func(r *Rank) {
		r.Finalize()
		r.Compute(1)         // harmless
		r.Barrier(r.World()) // must panic
	}, WithTimeout(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "after Finalize") {
		t.Fatalf("err = %v, want use-after-finalize", err)
	}
}

// collector gathers a rank's events for hook-layer tests. ev is the rank's
// scratch event (see Tracer): the struct is kept by value and the slices it
// points at are copied.
type collector struct {
	mu     *sync.Mutex
	events *[]Event
}

func (c collector) Record(ev *Event) {
	kept := *ev
	kept.Counts = append([]int(nil), ev.Counts...)
	kept.Group = append([]int(nil), ev.Group...)
	c.mu.Lock()
	*c.events = append(*c.events, kept)
	c.mu.Unlock()
}

func TestTracerObservesEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	tr := func(rank int) Tracer { return collector{mu: &mu, events: &events} }
	run(t, 2, netmodel.BlueGeneL(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(123)
			r.Send(r.World(), 1, 4, 2048)
		} else {
			r.Recv(r.World(), 0, 4, 2048)
		}
	}, WithTracer(tr))

	var send, recv *Event
	inits, finals := 0, 0
	for i := range events {
		switch events[i].Op {
		case OpSend:
			send = &events[i]
		case OpRecv:
			recv = &events[i]
		case OpInit:
			inits++
		case OpFinalize:
			finals++
		}
	}
	if inits != 2 || finals != 2 {
		t.Fatalf("init/final events = %d/%d, want 2/2", inits, finals)
	}
	if send == nil || recv == nil {
		t.Fatal("missing send or recv event")
	}
	if send.Peer != 1 || send.PeerWorld != 1 || send.Size != 2048 || send.Tag != 4 {
		t.Fatalf("send event = %+v", send)
	}
	if math.Abs(send.ComputeUS-123) > 1e-9 {
		t.Fatalf("send ComputeUS = %v, want 123", send.ComputeUS)
	}
	if recv.Peer != 0 || recv.SourceWasWildcard {
		t.Fatalf("recv event = %+v", recv)
	}
	if send.CallSite == 0 || recv.CallSite == 0 {
		t.Fatal("call sites not captured")
	}
	if send.EndUS < send.StartUS {
		t.Fatal("event ends before it starts")
	}
}

func TestTracerWildcardKeepsAnySource(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	tr := func(rank int) Tracer { return collector{mu: &mu, events: &events} }
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 99)
		} else {
			r.Recv(r.World(), AnySource, 0, 99)
		}
	}, WithTracer(tr))
	for i := range events {
		if events[i].Op == OpRecv {
			if !events[i].SourceWasWildcard || events[i].Peer != AnySource {
				t.Fatalf("wildcard recv event = %+v", events[i])
			}
			if events[i].PeerWorld != 0 {
				t.Fatalf("wildcard matched world = %d, want 0", events[i].PeerWorld)
			}
			return
		}
	}
	t.Fatal("no recv event observed")
}

func TestCallSitesAgreeAcrossRanks(t *testing.T) {
	// Two ranks executing the same source line must produce the same
	// call-site signature — the property ScalaTrace's inter-node merge
	// depends on.
	var mu sync.Mutex
	perRank := map[int][]Event{}
	tr := func(rank int) Tracer {
		return recordFunc(func(ev *Event) {
			mu.Lock()
			perRank[rank] = append(perRank[rank], *ev)
			mu.Unlock()
		})
	}
	run(t, 2, netmodel.Ideal(), func(r *Rank) {
		other := 1 - r.Rank()
		q := r.Irecv(r.World(), other, 0, 8)
		r.Send(r.World(), other, 0, 8)
		r.Wait(q)
	}, WithTracer(tr))
	a, b := perRank[0], perRank[1]
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].CallSite != b[i].CallSite {
			t.Fatalf("event %d differs: %v@%x vs %v@%x",
				i, a[i].Op, a[i].CallSite, b[i].Op, b[i].CallSite)
		}
	}
	// Distinct source lines must hash differently.
	sites := map[uint64]bool{}
	for _, ev := range a {
		if ev.Op == OpIrecv || ev.Op == OpSend || ev.Op == OpWait {
			sites[ev.CallSite] = true
		}
	}
	if len(sites) != 3 {
		t.Fatalf("expected 3 distinct call sites, got %d", len(sites))
	}
}

type recordFunc func(*Event)

func (f recordFunc) Record(ev *Event) { f(ev) }

func TestFlowControlStallsSender(t *testing.T) {
	// With a tiny credit window and a slow receiver, a burst of blocking
	// sends must inherit the receiver's drain time.
	m := netmodel.Ideal()
	m.CreditWindow = 2
	m.ResumeLatencyUS = 10
	var senderEnd float64
	const perRecvCompute = 1000
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(r.World(), 1, 0, 64)
			}
			senderEnd = r.Clock()
		} else {
			for i := 0; i < 10; i++ {
				r.Compute(perRecvCompute)
				r.Recv(r.World(), 0, 0, 64)
			}
		}
	})
	// Without flow control the sender would finish at ~0. With window 2 it
	// must wait for most of the receiver's 10*1000us of compute.
	if senderEnd < 5*perRecvCompute {
		t.Fatalf("sender finished at %v; flow control not stalling", senderEnd)
	}
}

func TestNoFlowControlWhenUnlimited(t *testing.T) {
	m := netmodel.Ideal() // CreditWindow 0 = unlimited
	var senderEnd float64
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 100; i++ {
				r.Send(r.World(), 1, 0, 64)
			}
			senderEnd = r.Clock()
		} else {
			for i := 0; i < 100; i++ {
				r.Compute(1000)
				r.Recv(r.World(), 0, 0, 64)
			}
		}
	})
	if senderEnd != 0 {
		t.Fatalf("unlimited-credit sender stalled: %v", senderEnd)
	}
}

func TestMultiTracer(t *testing.T) {
	var a, b int
	mt := MultiTracer{
		recordFunc(func(*Event) { a++ }),
		recordFunc(func(*Event) { b++ }),
	}
	mt.Record(&Event{Op: OpSend})
	if a != 1 || b != 1 {
		t.Fatalf("multitracer fanout = %d/%d", a, b)
	}
}

// TestTracedOpAllocatesNothingInTheHook pins the hook layer's per-event
// cost: on a call path already seen, the stack walk, the site lookup and the
// hand-over of the scratch event allocate nothing, and the tracer sees the
// same *Event every time.
func TestTracedOpAllocatesNothingInTheHook(t *testing.T) {
	var first, last *Event
	var bytes int
	tr := func(int) Tracer {
		return recordFunc(func(ev *Event) {
			if first == nil {
				first = ev
			}
			last = ev
			bytes += ev.Size
		})
	}
	run(t, 1, netmodel.Ideal(), func(r *Rank) {
		counts := []int{1, 2}
		op := func() {
			r.record(r.enter(), &Event{Op: OpAlltoallv, CommSize: 1, Size: 8, Counts: counts, Root: -1})
		}
		op() // symbolizes this call path, once per process
		if avg := testing.AllocsPerRun(100, op); avg != 0 {
			t.Errorf("a traced operation on a warm call site allocates %v objects in enter/record, want 0", avg)
		}
	}, WithTracer(tr))
	if first == nil || first != last {
		t.Fatalf("tracer saw events %p .. %p, want the rank's one scratch event", first, last)
	}
	if last.Op != OpFinalize || last.CallSite == 0 || bytes < 8*100 {
		t.Fatalf("scratch event not refilled per operation: last = %+v, bytes = %d", last, bytes)
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBarrier.IsCollective() || OpSend.IsCollective() {
		t.Fatal("IsCollective wrong")
	}
	if !OpFinalize.IsCollective() {
		t.Fatal("Finalize must count as collective")
	}
	if !OpSend.IsPointToPoint() || OpBarrier.IsPointToPoint() {
		t.Fatal("IsPointToPoint wrong")
	}
	if !OpIsend.IsSendSide() || OpIrecv.IsSendSide() {
		t.Fatal("IsSendSide wrong")
	}
	if !OpWaitall.IsWait() || OpSend.IsWait() {
		t.Fatal("IsWait wrong")
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	for op := OpNone; op < opSentinel; op++ {
		if got := OpFromString(op.String()); got != op {
			t.Errorf("round trip %v -> %v", op, got)
		}
	}
	if OpFromString("Bogus") != OpNone {
		t.Error("unknown name should map to OpNone")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("out-of-range op should format numerically")
	}
}

func TestManyRanksRingStress(t *testing.T) {
	// Larger-scale smoke test: 64 ranks, 50 halo iterations.
	n := 64
	res := run(t, n, netmodel.BlueGeneL(), func(r *Rank) {
		c := r.World()
		for iter := 0; iter < 50; iter++ {
			rl := r.Irecv(c, (r.Rank()+n-1)%n, 0, 1024)
			sr := r.Isend(c, (r.Rank()+1)%n, 0, 1024)
			r.Waitall(rl, sr)
			r.Compute(10)
		}
		r.Allreduce(c, 8)
	})
	if res.ElapsedUS <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	for i := 1; i < n; i++ {
		if res.PerRankUS[i] != res.PerRankUS[0] {
			t.Fatalf("clocks diverge after trailing allreduce")
		}
	}
}

func TestShadowClockTracksRealWithoutStalls(t *testing.T) {
	// With burst throttling disabled, the shadow clock must equal the real
	// clock at every point — it is the same simulation minus stalls.
	m := netmodel.BlueGeneL() // FlowSaturationFactor 0
	run(t, 4, m, func(r *Rank) {
		c := r.World()
		n := r.Size()
		for i := 0; i < 20; i++ {
			r.Compute(50)
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 4096)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 4096)
			r.Waitall(rq, sq)
			r.Allreduce(c, 8)
			if r.shadow != r.clock {
				t.Errorf("rank %d shadow %v != clock %v at iter %d", r.Rank(), r.shadow, r.clock, i)
				return
			}
		}
	})
}

func TestBurstStallChargesOnlyRealClock(t *testing.T) {
	m := netmodel.EthernetCluster()
	size := m.EagerLimit * 4 // bulk
	var clockEnd, shadowEnd float64
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Isend(r.World(), 1, 0, size) // back-to-back: saturating
			}
			clockEnd, shadowEnd = r.clock, r.shadow
		} else {
			for i := 0; i < 10; i++ {
				r.Recv(r.World(), 0, 0, size)
			}
		}
	})
	if clockEnd <= shadowEnd {
		t.Fatalf("saturating sender should stall: clock %v vs shadow %v", clockEnd, shadowEnd)
	}
}

func TestBurstStallIgnoresEagerMessages(t *testing.T) {
	m := netmodel.EthernetCluster()
	var clockEnd, shadowEnd float64
	run(t, 2, m, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 50; i++ {
				r.Isend(r.World(), 1, 0, 64) // small: buffered eagerly
			}
			clockEnd, shadowEnd = r.clock, r.shadow
		} else {
			for i := 0; i < 50; i++ {
				r.Recv(r.World(), 0, 0, 64)
			}
		}
	})
	if clockEnd != shadowEnd {
		t.Fatalf("eager burst must not stall: clock %v vs shadow %v", clockEnd, shadowEnd)
	}
}

func TestNoiseMakesRunsDifferentButReproducible(t *testing.T) {
	body := func(r *Rank) {
		c := r.World()
		for i := 0; i < 10; i++ {
			r.Compute(100)
			r.Allreduce(c, 8)
		}
	}
	quiet := netmodel.BlueGeneL()
	noisy := netmodel.BlueGeneL()
	noisy.NoiseFraction = 0.05
	noisy.NoiseSeed = 3
	r0 := run(t, 4, quiet, body)
	r1 := run(t, 4, noisy, body)
	r2 := run(t, 4, noisy, body)
	if r1.ElapsedUS <= r0.ElapsedUS {
		t.Fatalf("noise should lengthen the run: %v vs %v", r1.ElapsedUS, r0.ElapsedUS)
	}
	if r1.ElapsedUS != r2.ElapsedUS {
		t.Fatalf("same seed should reproduce exactly: %v vs %v", r1.ElapsedUS, r2.ElapsedUS)
	}
	noisy2 := netmodel.BlueGeneL()
	noisy2.NoiseFraction = 0.05
	noisy2.NoiseSeed = 4
	r3 := run(t, 4, noisy2, body)
	if r3.ElapsedUS == r1.ElapsedUS {
		t.Fatalf("different seeds should differ: %v", r3.ElapsedUS)
	}
}

func TestVirtualClockMonotonicProperty(t *testing.T) {
	// Property: a rank's clock never goes backwards across operations.
	run(t, 6, netmodel.EthernetCluster(), func(r *Rank) {
		c := r.World()
		n := r.Size()
		last := r.Clock()
		step := func() {
			if r.Clock() < last {
				t.Errorf("rank %d clock went backwards: %v -> %v", r.Rank(), last, r.Clock())
			}
			last = r.Clock()
		}
		for i := 0; i < 30; i++ {
			r.Compute(float64(i % 7))
			step()
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 9000)
			step()
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 9000)
			step()
			r.Waitall(rq, sq)
			step()
			if i%5 == 0 {
				r.Barrier(c)
				step()
			}
		}
	})
}

// callDeep issues op from depth extra frames below its caller.
//
//go:noinline
func callDeep(depth int, op func()) {
	if depth > 0 {
		callDeep(depth-1, op)
		return
	}
	op()
}

// TestCallSiteBoundedWalkMatchesFullWalk runs one body cold — no rankMain
// program counter learned, no memoized site, so every rank starts with full
// stack walks — and warm, and requires the same call-site hashes: a walk
// bounded at rankMain must name a source location as the full walk does,
// from a shallower, a deeper and again a shallower stack than the one that
// set the bound.
func TestCallSiteBoundedWalkMatchesFullWalk(t *testing.T) {
	depths := make([]int, 2)
	body := func(r *Rank) {
		c := r.World()
		for it := 0; it < 3; it++ {
			r.Barrier(c)
			callDeep(4, func() { r.Allreduce(c, 8) })
			r.Bcast(c, 0, 16)
			callDeep(9, func() { r.Barrier(c) })
			callDeep(2, func() { r.Reduce(c, 0, 8) })
		}
		depths[r.Rank()] = r.mainDepth
	}
	sites := func() []uint64 {
		var out []uint64
		tracer := func(rank int) Tracer {
			return recordFunc(func(ev *Event) {
				if rank == 0 {
					out = append(out, ev.CallSite)
				}
			})
		}
		if _, err := Run(2, netmodel.Ideal(), body, WithTracer(tracer)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	rankMainPC.Store(0)
	siteCache.Lock()
	clear(siteCache.m)
	siteCache.Unlock()
	cold := sites()
	if rankMainPC.Load() == 0 || depths[0] == 0 {
		t.Fatalf("rankMain's program counter %#x, walk bound %d: the bounded walk never ran", rankMainPC.Load(), depths[0])
	}
	warm := sites()
	if len(cold) != len(warm) || len(cold) != 2+3*5 {
		t.Fatalf("%d events cold, %d warm, want %d", len(cold), len(warm), 2+3*5)
	}
	distinct := map[uint64]bool{}
	for i := range cold {
		distinct[cold[i]] = true
		if cold[i] != warm[i] {
			t.Fatalf("event %d: site %#x from full walks, %#x from bounded ones", i, cold[i], warm[i])
		}
	}
	if len(distinct) != 6 { // five source lines and rankMain's own
		t.Fatalf("%d distinct call sites, want 6", len(distinct))
	}
}
