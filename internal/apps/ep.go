package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "ep",
		Description: "NPB EP: embarrassingly parallel random-number generation with final sum reductions",
		MinRanks:    1,
		ValidRanks:  func(n int) bool { return n >= 1 },
		Iterations:  func(c Class) int { return 1 },
		Body:        epBody,
	})
}

// epBody reproduces EP's communication: essentially none. Each rank
// generates its share of Gaussian pairs (a long compute phase broken into
// chunks, as the original's k-loop is), then the counts and sums are
// combined with three allreduces; a barrier closes timing.
func epBody(cfg Config) func(*mpi.Rank) {
	// EP's work grows as 2^(24..32) samples by class; model the per-rank
	// compute directly.
	npts := cfg.Class.gridPoints()
	totalUS := float64(npts*npts*npts) * 1.4
	const chunks = 16
	return func(r *mpi.Rank) {
		c := r.World()
		perChunk := totalUS / float64(r.Size()) / chunks
		for k := 0; k < chunks; k++ {
			r.Compute(computeTime(perChunk, k))
		}
		// sx, sy and the annulus counts.
		r.Allreduce(c, 8)
		r.Allreduce(c, 8)
		r.Allreduce(c, 80)
		r.Barrier(c)
	}
}
