package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "ring",
		Description: "toy: the paper's Figure 2 ring exchange (Irecv/Isend/Waitall loop)",
		MinRanks:    2,
		ValidRanks:  func(n int) bool { return n >= 2 },
		Iterations:  func(c Class) int { return scaledIters(1000, c) },
		Body:        ringBody,
	})
	register(&App{
		Name:        "halo2d",
		Description: "toy: 2-D five-point stencil halo exchange with an allreduce",
		MinRanks:    4,
		ValidRanks:  func(n int) bool { _, ok := NewGrid2D(n); return ok && n >= 4 },
		Iterations:  func(c Class) int { return scaledIters(100, c) },
		Body:        halo2dBody,
	})
}

// ringBody is the paper's Figure 2: every rank receives from its left
// neighbor and sends to its right neighbor, 1000 times.
func ringBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(1000, cfg.Class)
	size := cfg.Class.gridPoints() * 64
	return func(r *mpi.Rank) {
		c := r.World()
		n := r.Size()
		for i := 0; i < iters; i++ {
			r.Compute(computeTime(20, i))
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, size)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, size)
			r.Waitall(rq, sq)
		}
	}
}

// halo2dBody is a classic five-point stencil: exchange halos with up to
// four neighbors (no wraparound, so edge and corner ranks behave
// differently), compute, and reduce a residual.
func halo2dBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(100, cfg.Class)
	npts := cfg.Class.gridPoints()
	return func(r *mpi.Rank) {
		c := r.World()
		g, _ := NewGrid2D(r.Size())
		me := r.Rank()
		size := npts * npts / g.Size() * 8
		if size < 64 {
			size = 64
		}
		stencilUS := float64(npts*npts) / float64(g.Size()) * 0.4
		neighbors := []int{g.North(me), g.South(me), g.West(me), g.East(me)}
		for i := 0; i < iters; i++ {
			var reqs []*mpi.Request
			for tag, nb := range neighbors {
				if nb >= 0 {
					reqs = append(reqs, r.Irecv(c, nb, tag, size))
				}
			}
			for tag, nb := range neighbors {
				if nb >= 0 {
					reqs = append(reqs, r.Isend(c, nb, tag^1, size))
				}
			}
			r.Waitall(reqs...)
			r.Compute(computeTime(stencilUS, i))
			r.Allreduce(c, 8)
		}
	}
}
