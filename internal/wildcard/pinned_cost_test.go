package wildcard

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
)

// TestPinnedAllocationsPerEvent bounds what trace.Pinned allocates per event
// of its input when it applies Algorithm 2's decisions to lu at 64 ranks,
// class S: every rank's events are recompressed and the streams re-merged.
// A fresh stream builder per rank, each regrowing its tail-index maps and
// chain storage, cost 72 bytes per event; the bound is three quarters of
// that. One builder reset after each rank costs 39.
func TestPinnedAllocationsPerEvent(t *testing.T) {
	const bound = 54
	tr := kernelTrace(t, "lu", 64, apps.ClassS)
	pins, err := Assign(tr)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		trace.Pinned(tr, pins)
	}
	runtime.ReadMemStats(&after)
	events := float64(tr.TotalEvents())
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / events
	t.Logf("lu@64: %.0f events, %.0f bytes per event", events, bytes)
	if bytes > bound {
		t.Errorf("Pinned allocated %.0f bytes per event of lu@64, want at most %d", bytes, bound)
	}
}
