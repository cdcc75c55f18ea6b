package mpi_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/golden"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/taskset"
	"repro/internal/trace"
)

// opStream feeds a fixed op slice to the stackless executor.
type opStream struct {
	ops []mpi.RankOp
	i   int
}

func (s *opStream) Next(_ *mpi.Rank, op *mpi.RankOp) bool {
	if s.i >= len(s.ops) {
		return false
	}
	*op = s.ops[s.i]
	s.i++
	return true
}

// burstKernel is a ring on n ranks: for every burst size b, twice over, each
// rank posts b Irecvs from its left neighbour and b Isends to its right one,
// then one Waitall. It returns the kernel twice: as per-rank op lists for a
// stackless stream, and as the hand-built trace (one behaviour group per
// rank, absolute peers) whose replay issues exactly those ops.
func burstKernel(n int, bursts []int) ([][]mpi.RankOp, *trace.Trace) {
	const (
		siteRecv uint64 = iota + 1
		siteSend
		siteWait
	)
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	tr := &trace.Trace{N: n, Comms: map[int][]int{0: world}}
	ops := make([][]mpi.RankOp, n)
	for rank := 0; rank < n; rank++ {
		var seq []trace.Node
		add := func(op mpi.Op, site uint64, peer trace.Param, tag, size int) {
			ops[rank] = append(ops[rank], mpi.RankOp{Op: op, Site: site, Peer: peer.Value, Tag: tag, Size: size})
			seq = append(seq, &trace.RSD{Op: op, Site: site, Ranks: taskset.Of(rank),
				CommSize: n, Peer: peer, Tag: tag, Size: size, Root: -1})
		}
		left, right := (rank+n-1)%n, (rank+1)%n
		for _, b := range bursts {
			for rep := 0; rep < 2; rep++ {
				for k := 0; k < b; k++ {
					add(mpi.OpIrecv, siteRecv, trace.AbsParam(left), k, 256)
				}
				for k := 0; k < b; k++ {
					add(mpi.OpIsend, siteSend, trace.AbsParam(right), k, 256)
				}
				add(mpi.OpWaitall, siteWait, trace.NoParam, 0, 0)
			}
		}
		tr.Groups = append(tr.Groups, trace.Group{Ranks: taskset.Of(rank), Seq: seq})
	}
	return ops, tr
}

// retraced runs one replay under a Collector and returns the per-rank clocks
// and the encoded re-trace.
func retraced(t *testing.T, n int, run func(opts ...mpi.Option) (*mpi.Result, error), opts ...mpi.Option) ([]float64, []byte) {
	t.Helper()
	col := trace.NewCollector(n)
	res, err := run(append(opts, mpi.WithTracer(col.TracerFor))...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatal(err)
	}
	return res.PerRankUS, buf.Bytes()
}

// Recorded by the coroutine replayer — rank bodies holding their requests to
// the end of the run, which never rewind — on the burst kernel of
// TestRequestArenaRewindMatchesCoroutineReplay: every rank's final clock
// (Finalize is a barrier, so all four agree) as float64 bits, and the sha256
// of the encoded re-trace. The kernel's call sites are constants, so the
// re-trace needs no renumbering. The digest is of the lossless encoding
// (first-iteration pools, exact floats); the recorded trace, re-encoded
// without them, digests to 7f29494b…, the value the replayer recorded.
const (
	burstClockBits uint64 = 0x409c3b92c5f92b49
	burstRetrace          = "32cf553a136d427fb24ba4c90469251b727b3d799b39c53e07a4449c69454d62"
)

// TestRequestArenaRewindMatchesCoroutineReplay drives the stackless request
// arena across its refill boundary — bursts of 1, max-1, max, max+1 and 4*max
// requests between Waitalls, each twice so a rewound chunk is carved again —
// under a credit window of 2, so drains park in both passes: on a receive
// whose sender has not run yet (pendMatch; rank 0's first drain always does)
// and on a send whose receiver has not drained (pendCredit; any burst over
// the window). replay.Replay of the kernel's trace, a cold world and then the
// same pooled world, twice, must give the clocks and the re-trace the
// coroutine replay recorded above.
func TestRequestArenaRewindMatchesCoroutineReplay(t *testing.T) {
	const n = 4
	max := mpi.ArenaChunkMax
	ops, tr := burstKernel(n, []int{1, max - 1, max, max + 1, 4 * max})
	model := netmodel.BlueGeneL()
	model.CreditWindow = 2

	unthrottled := netmodel.BlueGeneL()
	unthrottled.CreditWindow = 0
	free, err := replay.Replay(tr, unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(free.PerRankUS[0]) == burstClockBits {
		t.Fatal("the credit window changed no clock: no drain stalled on flow control")
	}

	stackless := func(opts ...mpi.Option) (*mpi.Result, error) {
		return mpi.RunStackless(n, model, func(rank int) mpi.OpStream {
			return &opStream{ops: ops[rank]}
		}, opts...)
	}
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, leg := range []struct {
		name string
		run  func(opts ...mpi.Option) (*mpi.Result, error)
		opts []mpi.Option
	}{
		{"replay.Replay", func(opts ...mpi.Option) (*mpi.Result, error) { return replay.Replay(tr, model, opts...) }, nil},
		{"cold world", stackless, nil},
		{"pooled world, first run", stackless, []mpi.Option{mpi.WithEngine(eng)}},
		{"pooled world, reused", stackless, []mpi.Option{mpi.WithEngine(eng)}},
	} {
		clocks, retrace := retraced(t, n, leg.run, leg.opts...)
		for i, c := range clocks {
			if math.Float64bits(c) != burstClockBits {
				t.Errorf("%s: rank %d clock %v, coroutine replay %v", leg.name, i, c, math.Float64frombits(burstClockBits))
			}
		}
		if got := golden.TextDigest(string(retrace)); got != burstRetrace {
			t.Errorf("%s: re-trace digest %s, coroutine replay's %s", leg.name, got, burstRetrace)
		}
	}
}

// TestWarmRingReplayAllocatesNoRequests bounds what a replayed event costs the
// allocator once the world is warm: a ring of 1,000 Irecv/Isend/Waitall
// rounds replayed on a pooled world. Every round's two requests fit the
// rank's first request chunk, which the drain rewinds, and every round's
// message and posted receive are recycled once the round's drain lets go of
// them, into arena chunks the warm world already holds: the run allocates
// nothing per round. Measured: 0.1 B per event, the replay's per-run setup;
// 36.6 B when messages and posted receives lived to the end of the run
// (one 64 B message and one 48 B posted receive per three events), and
// 69.6 B when requests did too.
func TestWarmRingReplayAllocatesNoRequests(t *testing.T) {
	const n, rounds = 8, 1000
	col := trace.NewCollector(n)
	body := func(r *mpi.Rank) {
		c := r.World()
		for i := 0; i < rounds; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 512)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 512)
			r.Waitall(rq, sq)
		}
	}
	model := netmodel.BlueGeneL()
	if _, err := mpi.Run(n, model, body, mpi.WithTracer(col.TracerFor)); err != nil {
		t.Fatal(err)
	}
	tr := col.Trace()
	eng := mpi.NewEngine()
	defer eng.Close()
	run := func() {
		if _, err := replay.Replay(tr, model, mpi.WithEngine(eng)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the world: arenas, mailboxes, scheduler slab

	const reps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(reps*tr.TotalEvents())
	t.Logf("%.1f B per replayed event", perEvent)
	if perEvent > 1 {
		t.Errorf("a warm replayed event allocates %.1f B, want at most 1: requests, messages or posted receives are being allocated per round again", perEvent)
	}
}

// TestWarmReplayLowersPerNode pins where the replay lowering's cost lies: on
// a warm pooled engine, replaying a 64-rank ring of 100 rounds and of 1,000
// rounds makes exactly the same allocations. The traces differ only in a loop
// count, and the programs, their tables and the streams are paid per node and
// per rank, never per event.
func TestWarmReplayLowersPerNode(t *testing.T) {
	const n = 64
	model := netmodel.BlueGeneL()
	eng := mpi.NewEngine()
	defer eng.Close()
	mallocs := func(rounds int) float64 {
		col := trace.NewCollector(n)
		body := func(r *mpi.Rank) {
			c := r.World()
			for i := 0; i < rounds; i++ {
				rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 512)
				sq := r.Isend(c, (r.Rank()+1)%n, 0, 512)
				r.Waitall(rq, sq)
			}
		}
		if _, err := mpi.Run(n, model, body, mpi.WithTracer(col.TracerFor)); err != nil {
			t.Fatal(err)
		}
		tr := col.Trace()
		run := func() {
			if _, err := replay.Replay(tr, model, mpi.WithEngine(eng)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the world
		return testing.AllocsPerRun(5, run)
	}
	if short, long := mallocs(100), mallocs(1000); short != long {
		t.Errorf("a warm replay of 100 rounds makes %v allocations, of 1,000 rounds %v: the replay allocates per event", short, long)
	}
}

// reuseKernel is four ranks of point-to-point traffic whose message order a
// recycled message or posted receive could break, in three phases (tags name
// the messages; each phase gates its next step on a blocking receive, so the
// event engine's dispatch order is fixed):
//
//   - a tag-selective Recv takes rank 1's middle message out of rank 0's
//     unexpected queue, behind a live one, and a message rank 2 injects next
//     must not surface at the taken message's queue position; rank 1 then
//     sends 3*ArenaChunkMax/2 more messages, which rank 0 receives in order;
//   - rank 0 builds its AnySource candidate heap against a standing backlog
//     from ranks 1, 2 and 3, takes rank 1's candidate with a concrete Recv
//     (leaving its heap entry stale), and rank 1's next message lands at the
//     same address with a later arrival: the wildcard that follows must take
//     rank 2's earlier message;
//   - rank 3's third blocking Send to rank 2 parks on credit and is matched by
//     rank 2's posted receive, which drains it first.
func reuseKernel() [][]mpi.RankOp {
	const size = 256
	var ops [4][]mpi.RankOp
	add := func(rank int, op mpi.Op, peer, tag int) {
		ops[rank] = append(ops[rank], mpi.RankOp{Op: op, Site: uint64(0x100*rank + len(ops[rank]) + 1), Peer: peer, Tag: tag, Size: size})
	}
	compute := func(rank int, us float64) { ops[rank][len(ops[rank])-1].ComputeUS = us }

	// Phase 1: the middle take.
	add(0, mpi.OpRecv, 2, 90)
	add(0, mpi.OpRecv, 1, 1)
	add(0, mpi.OpRecv, 2, 91)
	add(0, mpi.OpRecv, 1, mpi.AnyTag)
	add(0, mpi.OpRecv, 1, mpi.AnyTag)
	add(0, mpi.OpRecv, 2, 92)
	add(0, mpi.OpSend, 1, 94)
	for i := 0; i < 3; i++ {
		add(1, mpi.OpIsend, 0, i)
	}
	add(1, mpi.OpWaitall, 0, 0)
	add(1, mpi.OpRecv, 0, 94)
	more := 3 * mpi.ArenaChunkMax / 2
	for i := 0; i < more; i++ {
		add(1, mpi.OpSend, 0, 20+i%3)
		add(0, mpi.OpRecv, 1, mpi.AnyTag)
	}
	add(2, mpi.OpSend, 0, 90)
	add(2, mpi.OpRecv, 3, 96)
	compute(2, 500)
	add(2, mpi.OpSend, 0, 92)
	add(2, mpi.OpSend, 0, 91)
	add(3, mpi.OpIsend, 2, 96)
	add(3, mpi.OpSend, 0, 50)

	// Phase 2: stale candidate-heap entries.
	add(0, mpi.OpSend, 1, 75)
	add(0, mpi.OpSend, 2, 75)
	add(0, mpi.OpRecv, 1, 72)
	add(0, mpi.OpRecv, 2, 71)
	add(0, mpi.OpRecv, mpi.AnySource, 50)
	add(0, mpi.OpRecv, 1, 50)
	add(0, mpi.OpSend, 1, 81)
	add(0, mpi.OpRecv, 1, 60)
	add(0, mpi.OpRecv, mpi.AnySource, 50)
	add(0, mpi.OpRecv, mpi.AnySource, 50)
	add(1, mpi.OpRecv, 0, 75)
	add(1, mpi.OpSend, 0, 50)
	add(1, mpi.OpSend, 0, 72)
	add(1, mpi.OpRecv, 0, 81)
	add(1, mpi.OpSend, 0, 50)
	ops[1][len(ops[1])-1].Size = 1 << 16 // arrives after rank 0's next wildcard is posted
	add(1, mpi.OpSend, 0, 60)
	add(2, mpi.OpRecv, 0, 75)
	add(2, mpi.OpSend, 0, 50)
	compute(2, 20) // so rank 1's message arrives first
	add(2, mpi.OpSend, 0, 71)

	// Phase 3: a credit-parked Send drained first.
	add(2, mpi.OpSend, 3, 97)
	add(2, mpi.OpRecv, 3, 0)
	add(2, mpi.OpRecv, 3, 1)
	add(2, mpi.OpRecv, 3, 1)
	add(3, mpi.OpRecv, 2, 97)
	add(3, mpi.OpSend, 2, 1)
	add(3, mpi.OpSend, 2, 1)
	add(3, mpi.OpSend, 2, 0)
	add(3, mpi.OpWaitall, 0, 0)
	return ops[:]
}

// Recorded before messages and posted receives were recycled, on the kernel
// of TestMessageOrderSurvivesReuse: rank 0's final clock (Finalize is a
// barrier, so all four agree) as float64 bits, and the sha256 of the encoded
// re-trace.
const (
	reuseClockBits uint64 = 0x4098ca740da740d1
	reuseRetrace          = "ea5e8b205f1a04462f0ff899a22750d0a7cf8deda88482ffb1bfc454f8d5d8eb"
)

// TestMessageOrderSurvivesReuse runs reuseKernel under a credit window of 2
// as coroutine bodies and as cursor streams, each on a cold world and twice
// on one pooled world, and requires the clocks and the re-trace recorded
// before any transport object was reused.
func TestMessageOrderSurvivesReuse(t *testing.T) {
	const n = 4
	ops := reuseKernel()
	model := netmodel.BlueGeneL()
	model.CreditWindow = 2
	coroutine := func(opts ...mpi.Option) (*mpi.Result, error) {
		return mpi.Run(n, model, func(r *mpi.Rank) { mpi.IssueOps(r, ops[r.Rank()]) }, opts...)
	}
	cursor := func(opts ...mpi.Option) (*mpi.Result, error) {
		return mpi.RunStackless(n, model, func(rank int) mpi.OpStream { return &opStream{ops: ops[rank]} }, opts...)
	}
	eng := mpi.NewEngine()
	defer eng.Close()
	for _, leg := range []struct {
		name string
		run  func(opts ...mpi.Option) (*mpi.Result, error)
		opts []mpi.Option
	}{
		{"coroutine, cold world", coroutine, nil},
		{"coroutine, pooled world", coroutine, []mpi.Option{mpi.WithEngine(eng)}},
		{"coroutine, pooled world reused", coroutine, []mpi.Option{mpi.WithEngine(eng)}},
		{"cursor, cold world", cursor, nil},
		{"cursor, pooled world", cursor, []mpi.Option{mpi.WithEngine(eng)}},
		{"cursor, pooled world reused", cursor, []mpi.Option{mpi.WithEngine(eng)}},
	} {
		clocks, retrace := retraced(t, n, leg.run, leg.opts...)
		for i, c := range clocks {
			if math.Float64bits(c) != reuseClockBits {
				t.Errorf("%s: rank %d clock %v (%#x), recorded %v", leg.name, i, c, math.Float64bits(c), math.Float64frombits(reuseClockBits))
			}
		}
		if got := golden.TextDigest(string(retrace)); got != reuseRetrace {
			t.Errorf("%s: re-trace digest %s, recorded %s", leg.name, got, reuseRetrace)
		}
	}
}

// TestStatusSurvivesReuse holds a completed wildcard Irecv request and a
// completed Isend request in a coroutine body while 4*ArenaChunkMax more
// messages cross the same pair of ranks, both ways, so that the message and
// the posted receive the requests completed on are reused many times over:
// each request's Status must read what it read right after its Wait, and
// every blocking Recv must return its own message's Status. The ranks talk
// over a reversed communicator, so a Status's Source differs from its
// SourceWorld.
func TestStatusSurvivesReuse(t *testing.T) {
	rounds := 4 * mpi.ArenaChunkMax
	_, err := mpi.Run(2, netmodel.BlueGeneL(), func(r *mpi.Rank) {
		c := r.CommSplit(r.World(), 0, -r.Rank())
		peer, _ := c.CommRank(1 - r.Rank())
		check := func(what string, got, want mpi.Status) {
			if got != want {
				t.Errorf("rank %d: %s: Status %+v, want %+v", r.Rank(), what, got, want)
			}
		}
		var rq, sq *mpi.Request
		var rqAtWait, sqAtWait mpi.Status
		if r.Rank() == 0 {
			rq = r.Irecv(c, mpi.AnySource, mpi.AnyTag, 64)
			rqAtWait = r.Wait(rq)
			check("wildcard Irecv", rqAtWait, mpi.Status{Source: peer, SourceWorld: 1, Tag: 5, Size: 33})
			sq = r.Isend(c, peer, 7, 99)
			sqAtWait = r.Wait(sq)
			check("Isend", sqAtWait, mpi.Status{Tag: 7, Size: 99})
		} else {
			r.Send(c, peer, 5, 33)
			check("Recv of the Isend", r.Recv(c, peer, 7, 99), mpi.Status{Source: peer, SourceWorld: 0, Tag: 7, Size: 99})
		}
		// Rank 0 sends in bursts of Isends, which draw every free message
		// at once; rank 1 answers with blocking Sends.
		var burst []*mpi.Request
		for i := 0; i < rounds; i++ {
			if r.Rank() == 0 {
				burst = append(burst, r.Isend(c, peer, 100+i, i))
				if len(burst) == mpi.ArenaChunkMax {
					r.Waitall(burst...)
					burst = burst[:0]
				}
			} else {
				check("Recv", r.Recv(c, mpi.AnySource, mpi.AnyTag, 0), mpi.Status{Source: peer, SourceWorld: 0, Tag: 100 + i, Size: i})
			}
		}
		for i := 0; i < rounds; i++ {
			if r.Rank() == 0 {
				check("Recv", r.Recv(c, mpi.AnySource, mpi.AnyTag, 0), mpi.Status{Source: peer, SourceWorld: 1, Tag: 200 + i, Size: 2 * i})
			} else {
				r.Send(c, peer, 200+i, 2*i)
			}
		}
		if r.Rank() == 0 {
			check("wildcard Irecv after reuse", rq.Status(), rqAtWait)
			check("Isend after reuse", sq.Status(), sqAtWait)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
