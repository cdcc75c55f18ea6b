package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "ft",
		Description: "NPB FT: 3-D FFT with all-to-all transposes each time step",
		MinRanks:    2,
		ValidRanks:  IsPow2,
		Iterations:  func(c Class) int { return scaledIters(20, c) },
		Body:        ftBody,
	})
}

// ftBody reproduces FT's communication: parameter broadcasts at startup,
// then per time step local FFT compute phases bracketing a global
// transpose (MPI_Alltoall of the full volume) and a checksum allreduce.
func ftBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(20, cfg.Class)
	npts := cfg.Class.gridPoints()
	// Total volume: npts^3 complex values (16 bytes).
	total := npts * npts * npts * 16
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		perPair := total / (n * n)
		if perPair < 16 {
			perPair = 16
		}
		fftUS := float64(total) / float64(n) * 0.004

		// setup(): broadcast of problem parameters.
		r.Bcast(c, 0, 48)
		r.Barrier(c)

		for iter := 0; iter < iters; iter++ {
			// evolve + local FFTs in two dimensions.
			r.Compute(computeTime(fftUS, iter))
			// Global transpose.
			r.Alltoall(c, perPair)
			// FFT in the third dimension.
			r.Compute(computeTime(fftUS*0.5, iter))
			// checksum(): complex sum across ranks.
			r.Allreduce(c, 16)
		}
	}
}
