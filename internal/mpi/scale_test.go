package mpi

import (
	"testing"
	"time"

	"repro/internal/netmodel"
)

// scaleBody is the workload of the large-world smoke tests: a nearest-
// neighbor ring exchange plus world collectives each step — the communication
// skeleton of the repo's stencil kernels, with per-rank work independent of
// world size so wall clock scales with total ranks only.
func scaleBody(steps int) func(*Rank) {
	return func(r *Rank) {
		w := r.World()
		n := r.Size()
		for i := 0; i < steps; i++ {
			peer := (r.Rank() + 1) % n
			from := (r.Rank() + n - 1) % n
			sreq := r.Isend(w, peer, i, 1024)
			rreq := r.Irecv(w, from, i, 1024)
			r.Waitall(rreq, sreq)
			r.Compute(5)
			r.Allreduce(w, 8)
		}
		r.Barrier(w)
	}
}

// TestEventEngineScales65536 is the scale proof behind MaxRunnableRanks: the
// event engine runs a 65536-rank world inside the default 60-second Run
// timeout, with the sparse mailbox index keeping memory far from the n² dense
// slab (16 TiB at this n). Skipped in short mode and under the race detector,
// whose instrumentation would dominate the measurement.
func TestEventEngineScales65536(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-rank world is skipped in short mode")
	}
	if raceEnabled {
		t.Skip("65536-rank world is skipped under the race detector")
	}
	const n = 65536
	start := time.Now()
	res, err := Run(n, netmodel.BlueGeneL(), scaleBody(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("%d ranks completed in %v (virtual makespan %.0fus)", n, time.Since(start), res.ElapsedUS)
	if len(res.PerRankUS) != n {
		t.Fatalf("PerRankUS has %d entries, want %d", len(res.PerRankUS), n)
	}
	// Ring symmetry: every rank runs the same schedule, so all final clocks
	// agree — a cheap full-world sanity check on the virtual timeline.
	for i := 1; i < n; i++ {
		if res.PerRankUS[i] != res.PerRankUS[0] {
			t.Fatalf("rank %d clock %v != rank 0 clock %v", i, res.PerRankUS[i], res.PerRankUS[0])
		}
	}
}
