package mpi

// This file is the causal profiler's recording layer. When a run is armed
// with WithCausalProfile, the event engine records one DepRecord per
// *resolved blocking dependency* — a receive completing against a matched
// message, a flow-control stall resuming on the receiver's drain, a
// collective rendezvous closing — at the exact points the scheduler already
// observes them (completeRecv, the credit resume in chargeCreditStall, the
// seqColl round close). Program order within a rank is the record order;
// cross-rank edges are the From/FromClock fields. The graph is pure
// observation: nothing here feeds back into any virtual clock, so a profiled
// run's traces and PerRankUS are bit-identical to an unprofiled one (pinned
// by the on/off test), and both event-engine rank representations —
// coroutine and stackless cursor — run the same exec functions, so their
// graphs are deep-equal as well.
//
// The post-run analysis lives in internal/critpath, which depends on this
// package and not vice versa.

// DepKind classifies one recorded causal dependency.
type DepKind uint8

const (
	// DepRecv: a receive completed against a matched message. From is the
	// sender; FromClock its clock at injection (send overhead paid, payload
	// departing); Ready the message's virtual arrival at the receiver.
	DepRecv DepKind = iota
	// DepCredit: a sender's flow-control stall resolved. From is the
	// draining receiver; Ready == FromClock is the drain clock that freed
	// the stall (or the sender's own clock when the release logically
	// predates the stall).
	DepCredit
	// DepColl: a collective rendezvous round closed. One record per member;
	// From is the last arriver (max arrival clock, lowest world rank
	// breaking ties); Ready == FromClock == the round's max arrival clock;
	// End its completion time.
	DepColl
)

// DepRecord is one resolved dependency. Start is the waiter's clock when it
// reached the blocking point (its wait begins there — a parked rank's clock
// never advances), Ready the virtual time the dependency was satisfied, End
// the waiter's clock after completion bookkeeping (overheads, penalties,
// collective cost). Ready <= Start means the rank never actually waited.
type DepRecord struct {
	Kind DepKind
	// Op is the semantic operation: OpRecv for matches, OpSend for credit
	// stalls, the collective's op for rounds. Site still attributes the
	// waiting call (a Waitall draining receives keeps the Waitall site).
	Op         Op
	Rank, From int32
	// Site is the call-site hash of the operation that waited: the
	// SetCallSite stamp on replays and generated programs, or the tracer's
	// stack-walk signature when a tracer is attached. A profiled run with
	// neither records 0 (unattributed) — the profiler never walks the stack
	// itself, keeping its per-operation cost to a few appends.
	Site       uint64
	Size       int
	Unexpected bool
	Start      float64
	Ready      float64
	End        float64
	FromClock  float64
	// Penalty is the unexpected-queue copy charge included in End (receives
	// only), recorded so the analysis can split it out without re-deriving
	// network-model costs.
	Penalty float64
}

// DefaultDepLimit bounds the total records one run may accumulate
// (~64 MiB of records at the default). Runs that exceed it keep the prefix
// and set Truncated; the analysis degrades gracefully but its path-length
// invariant no longer holds.
const DefaultDepLimit = 1 << 20

// DepGraph accumulates one run's dependency records. Arm it on a run with
// WithCausalProfile; after Run returns successfully the graph holds the
// per-rank record sequences (program order, End nondecreasing within a
// rank) plus the run's final clocks. A DepGraph is single-run state: rearm
// (reuse via a second Run) resets it. Not safe for concurrent use.
type DepGraph struct {
	// N is the world size of the recorded run.
	N int
	// Limit bounds the total record count (DefaultDepLimit when zero).
	Limit int
	// Records holds each rank's dependencies in program order.
	Records [][]DepRecord
	// FinalUS and ElapsedUS copy the run's Result.
	FinalUS   []float64
	ElapsedUS float64
	// Truncated reports that Limit was hit and records were dropped.
	Truncated bool

	total int
}

// NewDepGraph returns an empty graph with the default record limit.
func NewDepGraph() *DepGraph { return &DepGraph{Limit: DefaultDepLimit} }

// arm prepares the graph for a run of n ranks, retaining per-rank slice
// capacity across runs (pooled-world warm paths record allocation-free once
// grown).
func (g *DepGraph) arm(n int) {
	if g.Limit <= 0 {
		g.Limit = DefaultDepLimit
	}
	if cap(g.Records) < n {
		g.Records = append(g.Records[:cap(g.Records)], make([][]DepRecord, n-cap(g.Records))...)
	}
	g.Records = g.Records[:n]
	for i := range g.Records {
		g.Records[i] = g.Records[i][:0]
	}
	g.N = n
	g.FinalUS = g.FinalUS[:0]
	g.ElapsedUS = 0
	g.Truncated = false
	g.total = 0
}

// add appends one record, dropping it (and marking the graph truncated)
// once the limit is reached.
func (g *DepGraph) add(rec DepRecord) {
	if g.total >= g.Limit {
		g.Truncated = true
		return
	}
	g.total++
	g.Records[rec.Rank] = append(g.Records[rec.Rank], rec)
}

// Total returns the number of records held.
func (g *DepGraph) Total() int { return g.total }

// finish copies the completed run's clocks into the graph.
func (g *DepGraph) finish(res *Result) {
	g.FinalUS = append(g.FinalUS[:0], res.PerRankUS...)
	g.ElapsedUS = res.ElapsedUS
}
