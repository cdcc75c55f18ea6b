package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "is",
		Description: "NPB IS: integer bucket sort with all-to-all-v key exchange",
		MinRanks:    2,
		ValidRanks:  IsPow2,
		Iterations:  func(c Class) int { return scaledIters(10, c) },
		Body:        isBody,
	})
}

// isBody reproduces IS's communication: per iteration a bucket-size
// allreduce, an alltoall of bucket boundary counts, and the Alltoallv key
// redistribution whose per-destination volumes differ — the workload that
// exercises Table 1's averaged-size substitution.
func isBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(10, cfg.Class)
	npts := cfg.Class.gridPoints()
	totalKeys := npts * npts * npts * 4 // total key volume in bytes
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		me := r.Rank()
		perRank := totalKeys / n
		rankUS := float64(perRank) * 0.012

		for iter := 0; iter < iters; iter++ {
			// Local bucket counting.
			r.Compute(computeTime(rankUS, iter))
			// Bucket-size allreduce (1024 buckets x 4 bytes).
			r.Allreduce(c, 4096)
			// Key redistribution with skewed per-destination volumes:
			// a deterministic triangular skew reproduces IS's uneven
			// bucket boundaries.
			counts := make([]int, n)
			base := perRank / n
			for d := 0; d < n; d++ {
				skew := 1.0 + 0.5*float64((me+d+iter)%n)/float64(n) - 0.25
				counts[d] = int(float64(base) * skew)
				if counts[d] < 4 {
					counts[d] = 4
				}
			}
			r.Alltoallv(c, counts)
			// Local ranking of received keys.
			r.Compute(computeTime(rankUS*0.6, iter))
		}

		// full_verify(): neighboring-rank boundary exchange + reduction.
		if me > 0 {
			r.Send(c, me-1, 7, 4)
		}
		if me < n-1 {
			r.Recv(c, me+1, 7, 4)
		}
		r.Allreduce(c, 8)
	}
}
