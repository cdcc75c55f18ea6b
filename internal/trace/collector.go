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
//
// Collection runs on two goroutines. Record, on the engine's goroutine, only
// copies what a leaf keeps into the next record of a chunk. A full chunk goes
// to the Collector's compressor goroutine, which turns each record into a leaf
// and appends it to its rank's builder in arrival order. The engine calls the
// tracers of one world one at a time (see mpi.Tracer), so arrival order is
// the order of the calls and each builder sees its rank's events in program
// order: the trace cannot depend on when the compressor runs.
type Collector struct {
	n  int
	mu sync.Mutex
	// comms maps communicator IDs to their world-rank groups; shared
	// registry across ranks.
	comms map[int][]int
	// builders[rank] accumulates rank's compressed stream; only compress
	// touches them until Trace has joined it.
	builders []*Builder
	window   int
	// trace memoizes the merged result: the merge takes ownership of the
	// builders' sequences, so it must run at most once.
	trace *Trace

	// cur is the chunk Record fills; only the recording goroutine touches it.
	cur *chunk
	// The ring: the owned chunks, at most ringChunks, each either cur,
	// queued for the compressor (queue, a FIFO of qlen from qhead), being
	// compressed, or free. Record waits on idle while all of them are
	// queued, drain while a compressor is live.
	queue       [ringChunks]*chunk
	qhead, qlen int
	free        [ringChunks]*chunk
	nfree       int
	owned       int
	// running: a compressor goroutine is live. It exits once the queue is
	// empty, so an abandoned Collector leaves no goroutine behind.
	running bool
	// compressFn is compress as a func value made once: a go statement
	// with a receiver would allocate a closure on every start.
	compressFn func()
	idle       sync.Cond
	// panicked is what a compression panicked with; Trace re-raises it.
	panicked any
}

const (
	// chunkEvents is the number of records handed to the compressor at once.
	chunkEvents = 256
	// ringChunks bounds a Collector's chunks, and so its in-flight records,
	// whatever the length of the run.
	ringChunks = 4
	// spareMax bounds the chunks kept for later Collectors.
	spareMax = 8 * ringChunks
)

// record is what a leaf keeps of one mpi.Event, copied on the recording
// goroutine.
type record struct {
	t                     *rankTracer
	site                  uint64
	commID, commSize      int
	peer, tag, size, root int
	newCommID             int
	counts, group         []int
	computeUS             float64
	op                    mpi.Op
	wildcard              bool
}

type chunk struct {
	n    int
	recs [chunkEvents]record
}

// spare holds the chunks of finished Collectors for the next ones, so the
// allocation of a traced run does not grow by its ring.
var spare struct {
	sync.Mutex
	chunks []*chunk
}

// NewCollector returns a Collector for an n-rank run.
func NewCollector(n int) *Collector {
	c := &Collector{n: n, comms: make(map[int][]int), builders: make([]*Builder, n), window: DefaultMaxWindow}
	c.idle.L = &c.mu
	c.compressFn = c.compress
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

// Record copies what the rank's next leaf keeps of one runtime event into
// the Collector's current chunk. ev is the runtime's scratch event:
// everything kept is copied out of it here.
func (t *rankTracer) Record(ev *mpi.Event) {
	c := t.c
	if c.cur == nil || c.cur.n == chunkEvents {
		c.handOff()
	}
	rec := &c.cur.recs[c.cur.n]
	c.cur.n++
	// Field by field: a composite literal is built in a temporary and
	// copied, the larger part of this function's cost.
	rec.t = t
	rec.site = ev.CallSite
	rec.commID, rec.commSize = ev.CommID, ev.CommSize
	rec.peer, rec.tag, rec.size, rec.root = ev.Peer, ev.Tag, ev.Size, ev.Root
	rec.counts = append([]int(nil), ev.Counts...)
	rec.computeUS = ev.ComputeUS
	rec.op, rec.wildcard = ev.Op, ev.SourceWasWildcard
	rec.group, rec.newCommID = nil, 0
	if ev.NewCommID != 0 && len(ev.Group) > 0 {
		rec.group = append([]int(nil), ev.Group...)
		rec.newCommID = ev.NewCommID
		c.mu.Lock()
		c.comms[ev.NewCommID] = rec.group
		c.mu.Unlock()
	}
}

// leaf converts the record into an RSD leaf and appends it to its rank's
// compressed stream.
func (rec *record) leaf() {
	b := rec.t.builder
	r := b.NewLeaf()
	*r = RSD{
		Op:       rec.op,
		Site:     rec.site,
		Ranks:    rec.t.ranks,
		CommID:   rec.commID,
		CommSize: rec.commSize,
		Tag:      rec.tag,
		Size:     rec.size,
		Counts:   rec.counts,
		Root:     rec.root,
		Wildcard: rec.wildcard,
	}
	r.SetComputeSample(rec.computeUS)
	switch {
	case rec.wildcard:
		r.Peer = AnyParam
	case rec.op.IsPointToPoint():
		r.Peer = AbsParam(rec.peer)
	default:
		r.Peer = NoParam
	}
	if rec.group != nil {
		r.Group = rec.group
		r.NewCommID = rec.newCommID
	}
	b.Append(r)
}

// handOff queues the current chunk, if any, for compression, starting the
// compressor if none is live, and makes an empty chunk current, waiting
// while every chunk of the ring is queued.
func (c *Collector) handOff() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		c.push()
		if !c.running {
			c.running = true
			go c.compressFn()
		}
	}
	for c.nfree == 0 && c.owned == ringChunks {
		c.idle.Wait()
	}
	if c.nfree > 0 {
		c.nfree--
		c.cur, c.free[c.nfree] = c.free[c.nfree], nil
		return
	}
	c.owned++
	spare.Lock()
	if k := len(spare.chunks); k > 0 {
		c.cur, spare.chunks = spare.chunks[k-1], spare.chunks[:k-1]
	}
	spare.Unlock()
	if c.cur == nil {
		c.cur = new(chunk)
	}
}

// push moves cur to the back of the queue. Call with mu held.
func (c *Collector) push() {
	c.queue[(c.qhead+c.qlen)%ringChunks] = c.cur
	c.qlen++
	c.cur = nil
}

// compress is the compressor goroutine: it drains the queue in order and
// exits when it is empty. After a panic it only recycles what is queued,
// so a waiting Record still gets its chunk. It wakes the waiters after
// unlocking, so that they do not wake only to wait for the lock.
func (c *Collector) compress() {
	for {
		c.mu.Lock()
		if c.qlen == 0 {
			c.running = false
			c.mu.Unlock()
			c.idle.Broadcast()
			return
		}
		ch := c.queue[c.qhead]
		c.queue[c.qhead] = nil
		c.qhead = (c.qhead + 1) % ringChunks
		c.qlen--
		failed := c.panicked != nil
		c.mu.Unlock()
		if !failed {
			c.compressChunk(ch)
		}
		ch.n = 0
		c.mu.Lock()
		c.free[c.nfree] = ch
		c.nfree++
		c.mu.Unlock()
		c.idle.Broadcast()
	}
}

func (c *Collector) compressChunk(ch *chunk) {
	defer func() {
		if p := recover(); p != nil {
			c.mu.Lock()
			c.panicked = p
			c.mu.Unlock()
		}
	}()
	for i := range ch.recs[:ch.n] {
		ch.recs[i].leaf()
	}
}

// drain waits until every recorded event is in its builder. With no
// compressor live, it compresses what is left itself: there is nothing
// left to overlap with, and starting one would cost a wake-up. A panic of
// the compressor is re-raised here, on the caller's goroutine.
func (c *Collector) drain() {
	c.mu.Lock()
	if c.cur != nil && c.cur.n > 0 {
		c.push()
	}
	inline := !c.running
	c.running = true
	c.mu.Unlock()
	if inline {
		c.compress()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running {
		c.idle.Wait()
	}
	if c.panicked != nil {
		panic(c.panicked)
	}
}

// release gives the Collector's chunks, all free once drain returned, to
// later Collectors. Call with mu held.
func (c *Collector) release() {
	if c.cur != nil {
		c.free[c.nfree] = c.cur
		c.nfree++
		c.cur = nil
	}
	spare.Lock()
	for _, ch := range c.free[:c.nfree] {
		if len(spare.chunks) < spareMax {
			clear(ch.recs[:]) // drop the references to this run
			spare.chunks = append(spare.chunks, ch)
		}
	}
	spare.Unlock()
	clear(c.free[:])
	c.nfree, c.owned = 0, 0
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
	c.mu.Unlock()

	end := telemetry.Region("trace.finalize")
	c.drain()
	c.mu.Lock()
	c.release()
	comms := CloneComms(c.comms)
	c.mu.Unlock()

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
