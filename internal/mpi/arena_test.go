package mpi_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

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
// rank, absolute peers) whose coroutine replay issues exactly those ops.
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

// TestRequestArenaRewindMatchesCoroutineReplay drives the stackless request
// arena across its refill boundary — bursts of 1, max-1, max, max+1 and 4*max
// requests between Waitalls, each twice so a rewound chunk is carved again —
// under a credit window of 2, so drains park in both passes: on a receive
// whose sender has not run yet (pendMatch; rank 0's first drain always does)
// and on a send whose receiver has not drained (pendCredit; any burst over
// the window). A cold world and then the same pooled world, twice, must give
// the per-rank clocks and the re-trace of replay.ReplayReference — coroutine
// bodies holding their requests to the end of the run, which never rewind.
func TestRequestArenaRewindMatchesCoroutineReplay(t *testing.T) {
	const n = 4
	max := mpi.ArenaChunkMax
	ops, tr := burstKernel(n, []int{1, max - 1, max, max + 1, 4 * max})
	model := netmodel.BlueGeneL()
	model.CreditWindow = 2

	wantClocks, wantTrace := retraced(t, n, func(opts ...mpi.Option) (*mpi.Result, error) {
		return replay.ReplayReference(tr, model, opts...)
	})
	unthrottled := netmodel.BlueGeneL()
	unthrottled.CreditWindow = 0
	free, err := replay.ReplayReference(tr, unthrottled)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(free.PerRankUS) == fmt.Sprint(wantClocks) {
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
		opts []mpi.Option
	}{
		{"cold world", nil},
		{"pooled world, first run", []mpi.Option{mpi.WithEngine(eng)}},
		{"pooled world, reused", []mpi.Option{mpi.WithEngine(eng)}},
	} {
		clocks, retrace := retraced(t, n, stackless, leg.opts...)
		for i := range wantClocks {
			if clocks[i] != wantClocks[i] {
				t.Errorf("%s: rank %d clock %v, coroutine replay %v", leg.name, i, clocks[i], wantClocks[i])
			}
		}
		if !bytes.Equal(retrace, wantTrace) {
			t.Errorf("%s: re-trace differs from the coroutine replay's", leg.name)
		}
	}
}

// TestWarmRingReplayAllocatesNoRequests bounds what a replayed event costs the
// allocator once the world is warm: a ring of 1,000 Irecv/Isend/Waitall
// rounds replayed on a pooled world. Every round's two requests fit the
// rank's first request chunk, which the drain rewinds, so after the first
// round no request is allocated and what remains is one message (64 B) and
// one posted receive (48 B) per three events, in chunks. Measured: 36.6 B per
// event; the parent, whose requests lived to the end of the run, 69.6 B
// (the extra 2 x 48 B per round). The bound sits between the two.
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
	if perEvent > 50 {
		t.Errorf("a warm replayed event allocates %.1f B, want at most 50: requests are being allocated per round again", perEvent)
	}
}
