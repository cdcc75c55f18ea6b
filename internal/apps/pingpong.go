package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name: "pingpong",
		Description: "microbenchmark: paired latency/bandwidth sweep over doubling " +
			"message sizes (the microbenchmark category of the paper's introduction)",
		MinRanks:   2,
		ValidRanks: func(n int) bool { return n >= 2 && n%2 == 0 },
		Iterations: func(c Class) int { return scaledIters(100, c) },
		Body:       pingpongBody,
	})
}

// pingpongBody pairs rank 2k with rank 2k+1; each pair ping-pongs messages
// of doubling sizes, crossing the platform's eager/rendezvous threshold.
// The generated benchmark reproduces the whole sweep: one loop per size
// (sizes differ, so the levels do not fold together, exactly like a
// hand-written microbenchmark's measurement levels).
func pingpongBody(cfg Config) func(*mpi.Rank) {
	reps := scaledIters(100, cfg.Class)
	maxSize := cfg.Class.gridPoints() * 1024
	return func(r *mpi.Rank) {
		c := r.World()
		me := r.Rank()
		partner := me ^ 1
		pinger := me%2 == 0
		for size := 8; size <= maxSize; size *= 4 {
			for rep := 0; rep < reps; rep++ {
				r.Compute(computeTime(2, rep))
				if pinger {
					r.Send(c, partner, size, size)
					r.Recv(c, partner, size, size)
				} else {
					r.Recv(c, partner, size, size)
					r.Send(c, partner, size, size)
				}
			}
		}
		// Report aggregate results, as microbenchmarks do.
		r.Gather(c, 0, 16)
	}
}
