package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name: "sweep3d",
		Description: "Sweep3D: discrete-ordinates wavefront transport; its convergence " +
			"reduction is invoked from different call sites (the Section 4.3 alignment case)",
		MinRanks:   2,
		ValidRanks: func(n int) bool { _, ok := NewGrid2D(n); return ok && n >= 2 },
		Iterations: func(c Class) int { return scaledIters(12, c) },
		Body:       sweep3dBody,
	})
}

// sweep3dBody reproduces the Sweep3D kernel: a 2-D process grid swept by
// wavefronts from each of the eight octants in k-plane blocks. A rank
// receives pencil edges from its upstream neighbors (blocking receives with
// concrete sources — Sweep3D does not use wildcards), computes its cells,
// and forwards edges downstream. Each outer iteration ends in a convergence
// allreduce that the master rank reaches through a different source-code
// path than the workers, producing the split-call-site collectives that
// Algorithm 1 must merge.
func sweep3dBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(12, cfg.Class)
	npts := cfg.Class.gridPoints()
	const kblocks = 4
	return func(r *mpi.Rank) {
		c := r.World()
		g, _ := NewGrid2D(r.Size())
		me := r.Rank()

		sub := npts / g.Rows
		if sub < 1 {
			sub = 1
		}
		edge := sub * 6 * 8 * (npts / kblocks)
		if edge < 48 {
			edge = 48
		}
		cellUS := float64(sub*sub*npts) / kblocks * 0.015

		// The eight octants differ in the sweep direction along i and j.
		type octant struct{ di, dj int }
		octants := []octant{
			{+1, +1}, {+1, -1}, {-1, +1}, {-1, -1},
			{+1, +1}, {+1, -1}, {-1, +1}, {-1, -1},
		}

		for iter := 0; iter < iters; iter++ {
			for oi, oct := range octants {
				tag := 1000 + 10*oi
				var upI, dnI, upJ, dnJ int
				if oct.di > 0 {
					upI, dnI = g.West(me), g.East(me)
				} else {
					upI, dnI = g.East(me), g.West(me)
				}
				if oct.dj > 0 {
					upJ, dnJ = g.North(me), g.South(me)
				} else {
					upJ, dnJ = g.South(me), g.North(me)
				}
				for k := 0; k < kblocks; k++ {
					if upI >= 0 {
						r.Recv(c, upI, tag+k, edge)
					}
					if upJ >= 0 {
						r.Recv(c, upJ, tag+k+kblocks, edge)
					}
					r.Compute(computeTime(cellUS, iter))
					if dnI >= 0 {
						r.Send(c, dnI, tag+k, edge)
					}
					if dnJ >= 0 {
						r.Send(c, dnJ, tag+k+kblocks, edge)
					}
				}
			}
			// Convergence check: the master reaches the global reduction
			// from its I/O path, the workers from the sweep loop — two
			// distinct call sites for the same collective (Figure 3).
			if me == 0 {
				r.Compute(computeTime(cellUS*0.2, iter))
				r.Allreduce(c, 16) // master's call site
			} else {
				r.Allreduce(c, 16) // workers' call site
			}
		}

		// Final flux summary gathered at the master.
		if me == 0 {
			r.Reduce(c, 0, 48)
		} else {
			r.Reduce(c, 0, 48)
		}
		r.Barrier(c)
	}
}
