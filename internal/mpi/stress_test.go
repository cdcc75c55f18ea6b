package mpi

import (
	"testing"

	"repro/internal/golden"
	"repro/internal/netmodel"
)

// stressClocks digests the 256-rank stress run's per-rank clocks: the float64
// bit patterns, as the root package's engine golden digests them. It was
// recorded while the goroutine-per-rank runtime still ran beside the event
// engine and produced the same clocks bit for bit.
const stressClocks = "5b9d89fe2dc019edbba8b989a64b7e51a9317a185426106f2b22f87c64d5c61c"

// TestCollectiveStress256 runs the event engine at scale: 256 ranks issuing
// back-to-back mixed collectives interleaved with point-to-point traffic
// through the mailboxes, on both the world communicator and a split
// sub-communicator. A second run must repeat the first's clocks bit for bit,
// and both must match the recorded digest.
func TestCollectiveStress256(t *testing.T) {
	const n = 256
	body := func(r *Rank) {
		w := r.World()
		// Halve the world so sub-communicator rounds and world rounds
		// interleave on different rendezvous.
		sub := r.CommSplit(w, r.Rank()%2, r.Rank())
		for i := 0; i < 20; i++ {
			r.Allreduce(w, 8)
			r.Barrier(sub)
			// Neighbor exchange through the mailbox between rounds.
			peer := (r.Rank() + 1) % n
			from := (r.Rank() + n - 1) % n
			sreq := r.Isend(w, peer, i, 512)
			rreq := r.Irecv(w, from, i, 512)
			r.Waitall(rreq, sreq)
			r.Reduce(sub, 0, 64)
			r.Bcast(w, i%n, 256)
		}
		r.Alltoall(w, 16)
	}

	first, err := Run(n, netmodel.BlueGeneL(), body)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := Run(n, netmodel.BlueGeneL(), body)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for i := range first.PerRankUS {
		if first.PerRankUS[i] != second.PerRankUS[i] {
			t.Fatalf("rank %d clock: first run %v, second %v", i, first.PerRankUS[i], second.PerRankUS[i])
		}
	}
	if got := golden.ClockDigest(first.PerRankUS); got != stressClocks {
		t.Errorf("clock digest %s, recorded %s", got, stressClocks)
	}
}
