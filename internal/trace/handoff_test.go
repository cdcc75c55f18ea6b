package trace

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/taskset"
)

// This file holds the Collector's hand-off between the recording goroutine
// and its compressor to what compressing on the recording goroutine gives,
// and checks the hand-off's bounds: in-flight chunks, goroutines, panics.

// syncRecorder is the reference: it compresses one rank's events on the
// recording goroutine, straight into a stream builder, with the comm
// registry kept beside it.
type syncRecorder struct {
	b     *Builder
	ranks taskset.Set
	comms map[int][]int
}

func (s *syncRecorder) Record(ev *mpi.Event) {
	r := s.b.NewLeaf()
	*r = RSD{Op: ev.Op, Site: ev.CallSite, Ranks: s.ranks, CommID: ev.CommID, CommSize: ev.CommSize,
		Tag: ev.Tag, Size: ev.Size, Counts: append([]int(nil), ev.Counts...), Root: ev.Root,
		Wildcard: ev.SourceWasWildcard}
	r.SetComputeSample(ev.ComputeUS)
	switch {
	case ev.SourceWasWildcard:
		r.Peer = AnyParam
	case ev.Op.IsPointToPoint():
		r.Peer = AbsParam(ev.Peer)
	default:
		r.Peer = NoParam
	}
	if ev.NewCommID != 0 && len(ev.Group) > 0 {
		r.Group = append([]int(nil), ev.Group...)
		r.NewCommID = ev.NewCommID
		s.comms[ev.NewCommID] = r.Group
	}
	s.b.Append(r)
}

// syncReference returns n reference recorders sharing one registry, and
// the function that merges what they recorded.
func syncReference(n int) ([]*syncRecorder, func() *Trace) {
	comms := map[int][]int{0: worldComms(n)[0]}
	recs := make([]*syncRecorder, n)
	for i := range recs {
		recs[i] = &syncRecorder{b: NewStreamBuilder(DefaultMaxWindow), ranks: taskset.Of(i), comms: comms}
	}
	return recs, func() *Trace {
		seqs := make([][]Node, n)
		for i, s := range recs {
			seqs[i] = s.b.Seq()
		}
		return MergeRankSeqsOwned(n, CloneComms(comms), seqs)
	}
}

// TestCollectorMatchesSynchronousCompression traces every kernel at 16 ranks
// (or the largest count below that it accepts) through a Collector and, in
// the same run, through the synchronous reference: the encodings must be
// byte-identical.
func TestCollectorMatchesSynchronousCompression(t *testing.T) {
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		t.Run(fmt.Sprintf("%s-%d", name, n), func(t *testing.T) {
			col := NewCollector(n)
			recs, reference := syncReference(n)
			tracers := func(rank int) mpi.Tracer { return mpi.MultiTracer{col.TracerFor(rank), recs[rank]} }
			if _, err := mpi.Run(n, netmodel.BlueGeneL(), app.Body(apps.NewConfig(n, apps.ClassS)), mpi.WithTracer(tracers)); err != nil {
				t.Fatal(err)
			}
			if got, want := encodeTrace(t, col.Trace()), encodeTrace(t, reference()); got != want {
				t.Fatalf("collector and synchronous compression differ:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestCollectorChunkBoundaries drives a 3-rank Collector and the reference
// with the same events around the chunk size: none, one, exactly a chunk, a
// chunk and one, and many chunks. Rank 2 records nothing; the stream holds a
// CommSplit, v-variant counts and wildcard receives.
func TestCollectorChunkBoundaries(t *testing.T) {
	events := func(k int) []mpi.Event {
		evs := make([]mpi.Event, k)
		for i := range evs {
			rank := i % 2
			ev := mpi.Event{Op: mpi.OpSend, Rank: rank, CallSite: uint64(10 + i%7), CommSize: 3,
				Peer: 1 - rank, Tag: i % 3, Size: 8 * (i % 5), Root: -1, ComputeUS: float64(i % 11)}
			switch {
			case i == 3:
				ev = mpi.Event{Op: mpi.OpCommSplit, Rank: rank, CallSite: 1, CommSize: 3, Peer: mpi.NoPeer,
					Root: -1, Group: []int{0, 1}, NewCommID: 1}
			case i%13 == 5:
				ev.Op, ev.Peer, ev.PeerWorld, ev.SourceWasWildcard = mpi.OpRecv, mpi.AnySource, 1-rank, true
			case i%17 == 2:
				ev.Op, ev.Peer, ev.Counts = mpi.OpAlltoallv, mpi.NoPeer, []int{i, 2 * i, 3}
			}
			evs[i] = ev
		}
		return evs
	}
	for _, k := range []int{0, 1, chunkEvents, chunkEvents + 1, 10*chunkEvents + 7} {
		col := NewCollector(3)
		recs, reference := syncReference(3)
		tracers := []mpi.Tracer{col.TracerFor(0), col.TracerFor(1), col.TracerFor(2)}
		for _, ev := range events(k) {
			counts := ev.Counts
			tracers[ev.Rank].Record(&ev)
			recs[ev.Rank].Record(&ev)
			clear(counts) // the runtime's scratch storage is reused
		}
		if got, want := encodeTrace(t, col.Trace()), encodeTrace(t, reference()); got != want {
			t.Fatalf("%d events: collector and synchronous compression differ:\n%s\nvs\n%s", k, got, want)
		}
	}
}

// recordSteadily records k point-to-point events on rank 0 of col, shaped
// so that compression keeps folding.
func recordSteadily(col *Collector, k int) {
	tr := col.TracerFor(0)
	for i := 0; i < k; i++ {
		tr.Record(&mpi.Event{Op: mpi.OpSend, CallSite: uint64(i % 5), CommSize: 2, Peer: 1, Root: -1, Size: i % 3})
	}
}

// TestCollectorRingIsBounded records a run and one of ten times its events:
// both hold at most the ring's chunks in flight, whatever the compressor's
// pace, and hand them on, emptied, for the next Collector.
func TestCollectorRingIsBounded(t *testing.T) {
	const k = 8 * chunkEvents
	var owned []int
	for _, events := range []int{k, 10 * k} {
		col := NewCollector(2)
		recordSteadily(col, events)
		owned = append(owned, col.owned)
		if got := col.Trace().TotalEvents(); got != events {
			t.Fatalf("trace holds %d events, recorded %d", got, events)
		}
	}
	if owned[0] > ringChunks || owned[1] > ringChunks {
		t.Fatalf("chunks in flight for %d and %d events: %v, ring %d", k, 10*k, owned, ringChunks)
	}
	spare.Lock()
	defer spare.Unlock()
	if len(spare.chunks) == 0 || len(spare.chunks) > spareMax {
		t.Fatalf("%d spare chunks after two runs, want 1..%d", len(spare.chunks), spareMax)
	}
	for _, ch := range spare.chunks {
		if ch.recs[0].t != nil {
			t.Fatal("a spare chunk still references a finished run")
		}
	}
}

// waitForGoroutines polls until at most want goroutines run.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAbandonedCollectorLeavesNoGoroutine: a run that fails or is cancelled
// never calls Trace; its compressor still exits once the queue is empty.
func TestAbandonedCollectorLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for range 4 {
		recordSteadily(NewCollector(2), 5*chunkEvents+3)
	}
	waitForGoroutines(t, base)
}

// TestCompressorPanicSurfacesInTrace breaks one rank's builder: the panic
// inside compression must come out of Trace on the caller's goroutine, the
// recording goroutine must never wait on the dead compressor, and nothing
// may be left running.
func TestCompressorPanicSurfacesInTrace(t *testing.T) {
	base := runtime.NumGoroutine()
	col := NewCollector(2)
	broken := col.TracerFor(1).(*rankTracer)
	broken.builder = nil
	broken.Record(&mpi.Event{Op: mpi.OpBarrier, CommSize: 2, Peer: mpi.NoPeer, Root: -1})
	recordSteadily(col, 3*ringChunks*chunkEvents)
	defer waitForGoroutines(t, base)
	defer func() {
		p := recover()
		if _, ok := p.(runtime.Error); !ok {
			t.Fatalf("Trace recovered %v (%T), want the compressor's runtime error", p, p)
		}
	}()
	col.Trace()
	t.Fatal("Trace returned after compression panicked")
}
