package trace

import (
	"sync"

	"repro/internal/mpi"
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// Collector gathers the per-rank event streams of one run (via the runtime's
// PMPI hook) and produces the merged, compressed Trace when the run ends —
// the equivalent of ScalaTrace's interposition library plus the inter-node
// merge performed in MPI_Finalize.
type Collector struct {
	n  int
	mu sync.Mutex
	// comms maps communicator IDs to their world-rank groups; shared
	// registry across ranks.
	comms map[int][]int
	// builders[rank] accumulates rank's compressed stream.
	builders []*Builder
	window   int
	// trace memoizes the merged result: the merge takes ownership of the
	// builders' sequences, so it must run at most once.
	trace *Trace
}

// NewCollector returns a Collector for an n-rank run.
func NewCollector(n int) *Collector {
	c := &Collector{n: n, comms: make(map[int][]int), builders: make([]*Builder, n), window: DefaultMaxWindow}
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	c.comms[0] = world
	for i := range c.builders {
		c.builders[i] = NewStreamBuilder(c.window)
	}
	return c
}

// SetWindow overrides the intra-rank compression window (ablation knob).
// Call before the run starts.
func (c *Collector) SetWindow(w int) {
	c.window = w
	c.trace = nil
	for i := range c.builders {
		c.builders[i] = NewStreamBuilder(w)
	}
}

// TracerFor returns the tracer hook for one rank; pass to mpi.WithTracer.
func (c *Collector) TracerFor(rank int) mpi.Tracer {
	return &rankTracer{c: c, ranks: taskset.Of(rank), builder: c.builders[rank]}
}

type rankTracer struct {
	c *Collector
	// ranks is the rank's singleton set, shared by every leaf it records
	// (sets are immutable).
	ranks   taskset.Set
	builder *Builder
}

// Record converts one runtime event into an RSD leaf and appends it to the
// rank's compressed stream. ev is the runtime's scratch event: everything
// kept is copied out of it here.
func (t *rankTracer) Record(ev *mpi.Event) {
	r := t.builder.NewLeaf()
	*r = RSD{
		Op:       ev.Op,
		Site:     ev.CallSite,
		Ranks:    t.ranks,
		CommID:   ev.CommID,
		CommSize: ev.CommSize,
		Tag:      ev.Tag,
		Size:     ev.Size,
		Counts:   append([]int(nil), ev.Counts...),
		Root:     ev.Root,
		Wildcard: ev.SourceWasWildcard,
	}
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
		t.c.mu.Lock()
		t.c.comms[ev.NewCommID] = r.Group
		t.c.mu.Unlock()
	}
	t.builder.Append(r)
}

// Trace merges the per-rank streams into the final trace. Call only after
// the run has completed. The Collector owns its builders' sequences, so the
// merge consumes them in place (no defensive deep clone); the result is
// memoized and repeated calls return the same *Trace.
func (c *Collector) Trace() *Trace {
	c.mu.Lock()
	if c.trace != nil {
		t := c.trace
		c.mu.Unlock()
		return t
	}
	comms := CloneComms(c.comms)
	c.mu.Unlock()

	end := telemetry.Region("trace.finalize")
	seqs := make([][]Node, c.n)
	for rank := 0; rank < c.n; rank++ {
		seqs[rank] = c.builders[rank].Seq()
		c.builders[rank].publishPaths()
	}
	t := MergeRankSeqsOwned(c.n, comms, seqs)
	end()
	telemetry.NewGauge("trace.groups").Set(int64(len(t.Groups)))
	telemetry.NewGauge("trace.total_events").Set(int64(t.TotalEvents()))
	c.mu.Lock()
	c.trace = t
	c.mu.Unlock()
	return t
}
