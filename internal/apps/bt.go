package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "bt",
		Description: "NPB BT: block-tridiagonal ADI solver on a square process grid",
		MinRanks:    4,
		ValidRanks:  func(n int) bool { _, ok := SquareGrid(n); return ok },
		Iterations:  func(c Class) int { return scaledIters(200, c) },
		Body:        btBody,
	})
	register(&App{
		Name:        "sp",
		Description: "NPB SP: scalar-pentadiagonal ADI solver on a square process grid",
		MinRanks:    4,
		ValidRanks:  func(n int) bool { _, ok := SquareGrid(n); return ok },
		Iterations:  func(c Class) int { return scaledIters(400, c) },
		Body:        spBody,
	})
}

func scaledIters(base int, c Class) int {
	it := int(float64(base) * c.iterScale())
	if it < 2 {
		it = 2
	}
	return it
}

// adiConfig captures the shared structure of BT and SP: per-iteration face
// exchanges followed by pipelined line solves in three directions.
type adiConfig struct {
	iters     int
	faceBytes int
	solveMsg  int
	rhsUS     float64 // compute: right-hand side assembly per iteration
	solveUS   float64 // compute: one direction's solve per iteration
}

func btParams(cfg Config) adiConfig {
	npts := cfg.Class.gridPoints()
	g, _ := SquareGrid(cfg.N)
	sub := npts / g.Rows
	if sub < 1 {
		sub = 1
	}
	face := sub * npts * 5 * 8 // one face: sub x npts cells, 5 doubles each
	cells := float64(sub*sub) * float64(npts)
	return adiConfig{
		iters:     scaledIters(200, cfg.Class),
		faceBytes: face,
		solveMsg:  face / 5,
		rhsUS:     cells * 0.030,
		solveUS:   cells * 0.022,
	}
}

func spParams(cfg Config) adiConfig {
	npts := cfg.Class.gridPoints()
	g, _ := SquareGrid(cfg.N)
	sub := npts / g.Rows
	if sub < 1 {
		sub = 1
	}
	face := sub * npts * 3 * 8
	cells := float64(sub*sub) * float64(npts)
	return adiConfig{
		iters:     scaledIters(400, cfg.Class),
		faceBytes: face,
		solveMsg:  face / 3,
		rhsUS:     cells * 0.016,
		solveUS:   cells * 0.011,
	}
}

func btBody(cfg Config) func(*mpi.Rank) { return adiBody(cfg, btParams(cfg)) }
func spBody(cfg Config) func(*mpi.Rank) { return adiBody(cfg, spParams(cfg)) }

// adiBody is the common BT/SP skeleton: an initialization broadcast, then
// per iteration a four-neighbor face exchange (copy_faces) and three
// direction solves, each with forward and backward substitution exchanges;
// a verification reduce and barrier close the run. All point-to-point
// communication is asynchronous with torus wraparound, matching the NPB
// multi-partition scheme.
func adiBody(cfg Config, p adiConfig) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		g, _ := SquareGrid(r.Size())
		me := r.Rank()

		// Problem-setup broadcasts, as in the original's initialize().
		r.Bcast(c, 0, 24)
		r.Bcast(c, 0, 8)

		north, south := g.NorthWrap(me), g.SouthWrap(me)
		west, east := g.WestWrap(me), g.EastWrap(me)

		for iter := 0; iter < p.iters; iter++ {
			// copy_faces: exchange all four faces.
			r.Compute(computeTime(p.rhsUS, iter))
			rn := r.Irecv(c, north, 0, p.faceBytes)
			rs := r.Irecv(c, south, 1, p.faceBytes)
			rw := r.Irecv(c, west, 2, p.faceBytes)
			re := r.Irecv(c, east, 3, p.faceBytes)
			sn := r.Isend(c, north, 1, p.faceBytes)
			ss := r.Isend(c, south, 0, p.faceBytes)
			sw := r.Isend(c, west, 3, p.faceBytes)
			se := r.Isend(c, east, 2, p.faceBytes)
			r.Waitall(rn, rs, rw, re, sn, ss, sw, se)

			// x_solve / y_solve / z_solve: forward then backward
			// substitution along each grid direction.
			for dir := 0; dir < 3; dir++ {
				r.Compute(computeTime(p.solveUS, iter))
				fwdDst, fwdSrc := east, west
				if dir == 1 {
					fwdDst, fwdSrc = south, north
				}
				// The z direction cycles cells within the rank's own
				// multi-partition diagonal; model it as the transpose pair.
				if dir == 2 {
					row, col := g.Coords(me)
					fwdDst = g.Rank(col, row)
					fwdSrc = fwdDst
				}
				if fwdDst == me {
					// Diagonal ranks solve locally in z.
					r.Compute(computeTime(p.solveUS*0.3, iter))
					continue
				}
				rq := r.Irecv(c, fwdSrc, 10+dir, p.solveMsg)
				sq := r.Isend(c, fwdDst, 10+dir, p.solveMsg)
				r.Waitall(rq, sq)
				// Backward substitution flows the opposite way.
				rq = r.Irecv(c, fwdDst, 20+dir, p.solveMsg)
				sq = r.Isend(c, fwdSrc, 20+dir, p.solveMsg)
				r.Waitall(rq, sq)
			}
		}

		// verify(): residual norms to rank 0.
		r.Reduce(c, 0, 40)
		r.Barrier(c)
	}
}
