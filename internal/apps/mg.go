package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "mg",
		Description: "NPB MG: multigrid V-cycles with level-dependent halo exchanges",
		MinRanks:    2,
		ValidRanks:  IsPow2,
		Iterations:  func(c Class) int { return scaledIters(20, c) },
		Body:        mgBody,
	})
}

// mgBody reproduces MG's communication: each V-cycle restricts the residual
// down a hierarchy of grids and prolongates the correction back up, with a
// ring halo exchange at every level whose message size shrinks by 4x per
// level; the coarsest level and the periodic norm checks use allreduces.
func mgBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(20, cfg.Class)
	npts := cfg.Class.gridPoints()
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		me := r.Rank()
		left := (me + n - 1) % n
		right := (me + 1) % n

		levels := 2
		for pts := npts; pts > 8; pts /= 2 {
			levels++
		}
		topFace := npts * npts / n * 8
		if topFace < 64 {
			topFace = 64
		}
		smoothUS := float64(npts*npts*npts) / float64(n) * 0.010

		exchange := func(size, tag int) {
			rl := r.Irecv(c, left, tag, size)
			rr := r.Irecv(c, right, tag+1, size)
			sl := r.Isend(c, left, tag+1, size)
			sr := r.Isend(c, right, tag, size)
			r.Waitall(rl, rr, sl, sr)
		}

		// zran3: initial random residual + norm.
		r.Compute(computeTime(smoothUS, 0))
		r.Allreduce(c, 24)

		for iter := 0; iter < iters; iter++ {
			// Downward leg: smooth + restrict at each level.
			for lev := 0; lev < levels; lev++ {
				size := topFace >> (2 * lev)
				if size < 32 {
					size = 32
				}
				r.Compute(computeTime(smoothUS/float64(int(1)<<(2*lev)), iter))
				exchange(size, 300+2*lev)
			}
			// Coarsest-grid solve.
			r.Allreduce(c, 8)
			// Upward leg: prolongate + smooth at each level.
			for lev := levels - 1; lev >= 0; lev-- {
				size := topFace >> (2 * lev)
				if size < 32 {
					size = 32
				}
				exchange(size, 400+2*lev)
				r.Compute(computeTime(smoothUS/float64(int(1)<<(2*lev)), iter))
			}
			// Residual norm.
			r.Allreduce(c, 16)
		}
	}
}
