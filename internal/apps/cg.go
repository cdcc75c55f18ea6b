package apps

import "repro/internal/mpi"

func init() {
	register(&App{
		Name:        "cg",
		Description: "NPB CG: conjugate gradient with butterfly row sums and transpose exchange",
		MinRanks:    2,
		ValidRanks:  IsPow2,
		Iterations:  func(c Class) int { return scaledIters(75, c) },
		Body:        cgBody,
	})
}

// cgLayout mirrors NPB CG's process layout: npcols = nprows or
// npcols = 2*nprows, with each rank owning a block of the sparse matrix.
type cgLayout struct {
	nprows, npcols int
}

func newCGLayout(n int) cgLayout {
	// For n = 2^k: rows = 2^(k/2), cols = n/rows (cols == rows or 2*rows).
	rows := 1
	for rows*rows*4 <= n {
		rows *= 2
	}
	return cgLayout{nprows: rows, npcols: n / rows}
}

func (l cgLayout) rowOf(rank int) int { return rank / l.npcols }
func (l cgLayout) colOf(rank int) int { return rank % l.npcols }
func (l cgLayout) rank(r, c int) int  { return r*l.npcols + c }
func (l cgLayout) rowSize() int       { return l.npcols }

// transposePartner mirrors NPB CG's exch_proc: the rank holding the
// transposed block.
func (l cgLayout) transposePartner(rank int) int {
	r, c := l.rowOf(rank), l.colOf(rank)
	if l.npcols == l.nprows {
		return l.rank(c, r)
	}
	// npcols = 2*nprows: fold the wide dimension.
	cr, cc := c/2, 2*r+c%2
	return l.rank(cr, cc)
}

// cgBody reproduces CG's per-iteration communication: a butterfly
// reduction across each row for the q = A.p product pieces, an exchange
// with the transpose partner, and residual allreduces.
func cgBody(cfg Config) func(*mpi.Rank) {
	iters := scaledIters(75, cfg.Class)
	na := cfg.Class.gridPoints() * 1000 // CG problem dimension proxy
	return func(r *mpi.Rank) {
		c := r.World()
		l := newCGLayout(r.Size())
		me := r.Rank()
		row, col := l.rowOf(me), l.colOf(me)
		vecBytes := 8 * na / l.npcols
		if vecBytes < 8 {
			vecBytes = 8
		}
		computeUS := float64(na) / float64(r.Size()) * 2.2

		// makea(): initial synchronization.
		r.Barrier(c)

		for iter := 0; iter < iters; iter++ {
			// Sparse matrix-vector product (the dominant compute).
			r.Compute(computeTime(computeUS, iter))

			// Row-wise butterfly reduction of partial sums (NPB CG uses
			// log2(npcols) pairwise exchanges).
			for stage := 1; stage < l.rowSize(); stage *= 2 {
				partnerCol := col ^ stage
				partner := l.rank(row, partnerCol)
				rq := r.Irecv(c, partner, 100+stage, vecBytes)
				sq := r.Isend(c, partner, 100+stage, vecBytes)
				r.Waitall(rq, sq)
				r.Compute(computeTime(computeUS*0.05, iter))
			}

			// Exchange with the transpose partner (exch_proc).
			tp := l.transposePartner(me)
			if tp != me {
				rq := r.Irecv(c, tp, 200, vecBytes)
				sq := r.Isend(c, tp, 200, vecBytes)
				r.Waitall(rq, sq)
			}

			// rho and residual-norm reductions.
			r.Allreduce(c, 8)
			if iter%5 == 4 {
				r.Allreduce(c, 8)
			}
		}

		// Final verification norm.
		r.Allreduce(c, 8)
	}
}
