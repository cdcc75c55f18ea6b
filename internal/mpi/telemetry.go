package mpi

import (
	"strconv"

	"repro/internal/telemetry"
)

// Telemetry handles for the transport hot paths. Handles are package
// variables so instrumented sites pay one nil-or-flag check plus (enabled)
// one atomic add — never a registry lookup. None of these feed back into
// virtual time: traces and clocks are bit-identical with telemetry on or off.
var (
	// ctrMatchedFast counts receives satisfied at post time from the
	// unexpected queue (the mailbox fast path that skips the second lock).
	ctrMatchedFast = telemetry.NewCounter("mpi.msgs_matched_fast")
	// ctrQueuedUnexpected counts deposits that found no posted acceptor and
	// joined an unexpected queue.
	ctrQueuedUnexpected = telemetry.NewCounter("mpi.msgs_queued")
	// ctrWildcardRecvs counts receives posted with AnySource.
	ctrWildcardRecvs = telemetry.NewCounter("mpi.wildcard_recvs")
	// ctrRunsCancelled counts runs torn down by context cancellation, the
	// deadlock timeout, or the event engine's instant deadlock proof (every
	// rank unwinds either way).
	ctrRunsCancelled = telemetry.NewCounter("mpi.runs_cancelled")
	// ctrSchedEvents counts event-engine dispatches: each is one step of a
	// rank popped from the virtual-time run queue.
	ctrSchedEvents = telemetry.NewCounter("mpi.sched_events")
	// ctrSchedWakes counts blocked ranks pushed back onto the run queue by a
	// matching deposit, a credit-releasing drain, or a completed collective.
	ctrSchedWakes = telemetry.NewCounter("mpi.sched_wakes")
	// histSchedHeapDepth samples the run-queue depth every 64th dispatch —
	// sampling keeps the histogram's mutex off the dispatch hot path, whose
	// instrumentation overhead is bounded by the telemetry guard test.
	histSchedHeapDepth = telemetry.NewHistogram("mpi.sched_heap_depth")
	// ctrWorldReuseHits counts Engine runs served by a pooled world (warm
	// start: O(active-ranks) reset instead of full reallocation);
	// ctrWorldReuseMisses counts runs that had to build a world from scratch
	// (cold start — including every non-Engine Run).
	ctrWorldReuseHits   = telemetry.NewCounter("mpi.world_reuse_hits")
	ctrWorldReuseMisses = telemetry.NewCounter("mpi.world_reuse_misses")
	// histRunSetupUS records, per Run, the wall-clock microseconds spent
	// building or resetting the world before the first rank executes. The
	// cold/warm gap in this histogram is the pooling win (BenchmarkWorldSetup).
	histRunSetupUS = telemetry.NewHistogram("mpi.run_setup_us")
	// histEnginePoolWaitUS records, per pooled acquisition, the wall-clock
	// microseconds spent taking a world off the Engine's free list. With one
	// Run at a time this is sub-microsecond; under concurrent pooled Runs it
	// is exactly the contention on the Engine's one mutex, and the
	// measurement that would have to grow before that lock is split.
	histEnginePoolWaitUS = telemetry.NewHistogram("mpi.engine_pool_wait_us")
	// ctrWorldsCompleted counts runs that produced a result (on any runtime,
	// pooled or cold): the numerator of aggregate worlds/sec throughput.
	ctrWorldsCompleted = telemetry.NewCounter("mpi.worlds_completed")
)

// timelineTracer records each operation of one rank as a virtual-time span
// on the rank's timeline track. It composes with the trace collector and the
// mpiP profiler through MultiTracer.
type timelineTracer struct {
	track *telemetry.Track
}

// TimelineTracer returns a per-rank tracer factory feeding tl: every MPI
// operation becomes a span on the rank's track at its virtual start time,
// and inter-call computation becomes a preceding "compute" span. Exported via
// Timeline.WriteChrome, the result is the run's virtual-time schedule as
// Perfetto renders it — one row per rank.
func TimelineTracer(tl *telemetry.Timeline) func(rank int) Tracer {
	return func(rank int) Tracer {
		return &timelineTracer{track: tl.Track(rank, "rank "+strconv.Itoa(rank))}
	}
}

// Record implements Tracer.
func (t *timelineTracer) Record(ev *Event) {
	if ev.ComputeUS > 0 {
		t.track.Add("compute", ev.StartUS-ev.ComputeUS, ev.ComputeUS)
	}
	t.track.Add(ev.Op.String(), ev.StartUS, ev.EndUS-ev.StartUS)
}
