package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name: "lu",
		Description: "NPB LU: SSOR wavefront solver whose pipeline receives use " +
			"MPI_ANY_SOURCE (the Section 4.4 nondeterminism case)",
		MinRanks:   2,
		ValidRanks: func(n int) bool { _, ok := NewGrid2D(n); return ok && n >= 2 },
		Iterations: func(c Class) int { return scaledIters(250, c) },
		Body:       luBody,
	})
}

// luBody reproduces LU's communication: a 2-D pencil decomposition swept by
// a pipelined wavefront. Each k-block's incoming pencil edges are received
// with wildcard sources — the NPB LU implementation receives from its north
// and west neighbors in whatever order the messages arrive — making this the
// workload that requires Algorithm 2.
func luBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(250, cfg.Class)
	npts := cfg.Class.gridPoints()
	const kblocks = 8
	return func(r *mpi.Rank) {
		c := r.World()
		g, _ := NewGrid2D(r.Size())
		me := r.Rank()
		north, south := g.North(me), g.South(me)
		west, east := g.West(me), g.East(me)

		sub := npts / g.Rows
		if sub < 1 {
			sub = 1
		}
		edge := sub * 5 * 8 * (npts / kblocks)
		if edge < 40 {
			edge = 40
		}
		blockUS := float64(sub*sub*npts) / kblocks * 0.020

		// init_comm / bcast_inputs.
		r.Bcast(c, 0, 64)

		for iter := 0; iter < iters; iter++ {
			// Lower-triangular sweep: the wavefront flows from the
			// north-west corner; incoming edges arrive in arbitrary order.
			for k := 0; k < kblocks; k++ {
				upstream := 0
				if north >= 0 {
					upstream++
				}
				if west >= 0 {
					upstream++
				}
				for i := 0; i < upstream; i++ {
					r.Recv(c, mpi.AnySource, 500+k, edge)
				}
				r.Compute(computeTime(blockUS, iter))
				if south >= 0 {
					r.Send(c, south, 500+k, edge)
				}
				if east >= 0 {
					r.Send(c, east, 500+k, edge)
				}
			}
			// Upper-triangular sweep: the wavefront flows back from the
			// south-east corner.
			for k := 0; k < kblocks; k++ {
				downstream := 0
				if south >= 0 {
					downstream++
				}
				if east >= 0 {
					downstream++
				}
				for i := 0; i < downstream; i++ {
					r.Recv(c, mpi.AnySource, 600+k, edge)
				}
				r.Compute(computeTime(blockUS, iter))
				if north >= 0 {
					r.Send(c, north, 600+k, edge)
				}
				if west >= 0 {
					r.Send(c, west, 600+k, edge)
				}
			}
			// Residual norms every few steps (l2norm -> MPI_Allreduce).
			if iter%5 == 4 {
				r.Allreduce(c, 40)
			}
		}

		// Final error norms and verification.
		r.Allreduce(c, 40)
		r.Allreduce(c, 40)
	}
}
