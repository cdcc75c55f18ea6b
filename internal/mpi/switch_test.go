package mpi

import (
	"testing"

	"repro/internal/netmodel"
)

// spinTracer stands in for a trace collector: a fixed amount of work per
// event (about a microsecond) that touches nothing shared.
type spinTracer struct{ sink uint64 }

func (t *spinTracer) Record(ev *Event) {
	h := uint64(ev.Op)
	for i := 0; i < 600; i++ {
		h = h*1099511628211 + uint64(i)
	}
	t.sink += h
}

// BenchmarkRankSwitch is the cost of handing control from one coroutine rank
// to the next: a 64-rank ring in which every rank blocks in every Sendrecv, so
// the run is little else. The traced leg puts a tracer's worth of work
// between consecutive switches, which is the spacing at which a handoff
// through the Go scheduler parks and re-wakes an idle P's thread each time.
// Run it at -cpu 1,2: the two columns should agree.
func BenchmarkRankSwitch(b *testing.B) {
	const n, steps = 64, 100
	body := func(r *Rank) {
		w := r.World()
		next, prev := (r.Rank()+1)%n, (r.Rank()+n-1)%n
		for i := 0; i < steps; i++ {
			r.Sendrecv(w, next, i, 64, prev, i, 64)
		}
	}
	for _, leg := range []struct {
		name string
		opts []Option
	}{
		{"bare", nil},
		{"traced", []Option{WithTracer(func(int) Tracer { return new(spinTracer) })}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			eng := NewEngine()
			defer eng.Close()
			opts := append(leg.opts, WithEngine(eng))
			for i := 0; i < b.N; i++ {
				if _, err := Run(n, netmodel.BlueGeneL(), body, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
