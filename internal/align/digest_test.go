package align

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/golden"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// traceDigest is golden.TraceDigest of tr's encoding.
func traceDigest(t *testing.T, tr *trace.Trace) string {
	return golden.TraceDigest([]byte(encodeTrace(t, tr)))
}

// sameTrace fails the test at the first line in which the encodings of got
// and want differ, sites renumbered.
func sameTrace(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	renumbered := func(tr *trace.Trace) []byte { return golden.Renumber([]byte(encodeTrace(t, tr))) }
	if d := golden.Diff(renumbered(got), renumbered(want)); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// alignInput collects a kernel's trace and takes it as far as the pipeline
// does before Algorithm 1: wildcard receives resolved.
func alignInput(t testing.TB, name string, n int, class apps.Class) *trace.Trace {
	t.Helper()
	tr := traceKernel(t, name, n, class)
	if wildcard.Present(tr) {
		resolved, err := wildcard.Resolve(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr = resolved
	}
	return tr
}

// TestAlignRunToRunBitEqual aligns one trace twenty times: every run must
// give the first one's digest. The merged collective's compute sample is a
// floating-point mean over the members; taken in map-iteration order it
// differed in the last bit of Compute.Sum in 14 of 20 runs on halo2d at 36
// ranks.
func TestAlignRunToRunBitEqual(t *testing.T) {
	for _, k := range []struct {
		app string
		n   int
	}{{"halo2d", 36}, {"sweep3d", 16}} {
		tr := alignInput(t, k.app, k.n, apps.ClassS)
		var first string
		for run := 0; run < 20; run++ {
			aligned, err := Align(tr)
			if err != nil {
				t.Fatalf("%s: %v", k.app, err)
			}
			d := traceDigest(t, aligned)
			if run == 0 {
				first = d
			} else if d != first {
				t.Fatalf("%s@%d: run %d digests %s, run 0 %s", k.app, k.n, run, d, first)
			}
		}
	}
}
