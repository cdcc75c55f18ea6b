package trace

import "repro/internal/telemetry"

// Telemetry handles for the compression pipeline. Package variables so the
// intra-rank fold loop — the pipeline's hottest code — pays one flag check
// per successful fold and no registry lookups.
var (
	// ctrFolds counts successful intra-rank compression steps: loop
	// extensions (Case A) plus pair folds (Case B).
	ctrFolds = telemetry.NewCounter("trace.folds")
	// ctrRSDMerges counts inter-node member folds: for each behaviour class,
	// every member beyond the representative is folded into the group.
	ctrRSDMerges = telemetry.NewCounter("trace.rsd_merges")
	// Stream builders' appends by path (the pending-iteration cursor or the
	// tail index), published when a builder's stream ends.
	ctrCursorAppends  = telemetry.NewCounter("trace.cursor_appends")
	ctrIndexedAppends = telemetry.NewCounter("trace.indexed_appends")
	// The Collector's hand-off: the times Record waited for a free chunk of
	// a full ring, and the compressor goroutines it started.
	ctrRingWaits        = telemetry.NewCounter("trace.ring_waits")
	ctrCompressorStarts = telemetry.NewCounter("trace.compressor_starts")
)
