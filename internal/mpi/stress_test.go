package mpi

import (
	"testing"

	"repro/internal/netmodel"
)

// TestCollectiveStress256 runs the goroutine runtime at scale: 256 ranks
// issuing back-to-back mixed collectives interleaved with point-to-point
// traffic through the mailboxes, on both the world communicator and a split
// sub-communicator. Run under -race (make check), it is the memory-model
// check for the reference runtime's transport and rendezvous; it also asserts
// the event engine's clocks agree with it bit for bit.
// Skipped in short mode: 256 ranks x both runtimes is deliberately heavy.
func TestCollectiveStress256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank stress is skipped in short mode")
	}
	const n = 256
	body := func(r *Rank) {
		w := r.World()
		// Halve the world so sub-communicator rounds and world rounds
		// interleave on different sync instances.
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

	event, err := Run(n, netmodel.BlueGeneL(), body)
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	ref, err := Run(n, netmodel.BlueGeneL(), body, WithGoroutineRuntime())
	if err != nil {
		t.Fatalf("goroutine runtime: %v", err)
	}
	for i := range ref.PerRankUS {
		if event.PerRankUS[i] != ref.PerRankUS[i] {
			t.Fatalf("rank %d clock: event %v, goroutine %v",
				i, event.PerRankUS[i], ref.PerRankUS[i])
		}
	}
}
