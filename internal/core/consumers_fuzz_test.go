package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// FuzzConsumers holds the consumers of a trace to what Decode's rules promise:
// on whatever Decode accepts, Algorithms 1 and 2, the MP-net lowering and
// checker, replay's equivalence check and the generator return a result or an
// error and never panic. None of them carries a guard of its own for a trace
// that breaks a rule; this is what shows they need none. Its seeds are
// FuzzDecode's documents and encoded traces of bodies that give each consumer
// work: wildcards (lu, Figure 5's deadlock), split collectives (sweep3d) and
// non-identity sub-communicators.
func FuzzConsumers(f *testing.F) {
	text, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "seeds.txt"))
	if err != nil {
		f.Fatal(err)
	}
	// Each document follows a line "=== what it holds".
	for _, doc := range strings.Split(string(text), "=== ")[1:] {
		_, doc, _ = strings.Cut(doc, "\n")
		f.Add([]byte(doc))
	}
	bodies := []struct {
		n    int
		body func(*mpi.Rank)
	}{
		{4, apps.ByName("lu").Body(apps.NewConfig(4, apps.ClassS))},
		{4, apps.ByName("sweep3d").Body(apps.NewConfig(4, apps.ClassS))},
		{3, figure5Body},
		{8, subCommBody},
	}
	for _, b := range bodies {
		col := trace.NewCollector(b.n)
		if _, err := mpi.Run(b.n, netmodel.BlueGeneL(), b.body, mpi.WithTracer(col.TracerFor)); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, col.Trace()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || tr.N > 32 {
			return
		}
		for _, g := range tr.Groups {
			if !eventsWithin(g.Seq, 1<<12) {
				return
			}
		}
		align.Align(tr)
		wildcard.Resolve(tr)
		opts := &mpnet.Options{MaxEvents: 1 << 12, MaxStates: 1 << 10}
		if net, err := mpnet.FromTrace(tr, opts); err == nil {
			net.Check(opts)
		}
		replay.Equivalent(tr, tr)
		core.NewPipeline(tr, nil).Program()
	})
}

// figure5Body is the paper's Figure 5: rank 1's wildcard receive may take
// rank 0's message, which its next concrete receive needs.
func figure5Body(r *mpi.Rank) {
	c := r.World()
	switch r.Rank() {
	case 0:
		r.Compute(100)
		r.Send(c, 1, 0, 8)
	case 2:
		r.Send(c, 1, 0, 8)
	}
	r.Barrier(c)
	if r.Rank() == 1 {
		r.Recv(c, mpi.AnySource, 0, 8)
		r.Recv(c, 0, 0, 8)
	}
}

// subCommBody runs collectives and a ring on communicators that are not
// prefixes of the world: the halves, the parities and a duplicate.
func subCommBody(r *mpi.Rank) {
	w := r.World()
	halves := r.CommSplit(w, r.Rank()/4, r.Size()-r.Rank())
	parity := r.CommSplit(w, r.Rank()%2, r.Rank())
	dup := r.CommDup(w)
	r.Allreduce(halves, 8)
	r.Bcast(parity, 1, 16)
	r.Barrier(dup)
	me, _ := parity.CommRank(r.Rank())
	rq := r.Irecv(parity, (me+parity.Size()-1)%parity.Size(), 0, 32)
	r.Send(parity, (me+1)%parity.Size(), 0, 32)
	r.Wait(rq)
	r.Send(w, (r.Rank()+1)%r.Size(), 1, 8)
	r.Recv(w, mpi.AnySource, 1, 8)
}

// eventsWithin reports whether one rank's walk of seq stays within budget
// events, without multiplying out loop counts that would overflow.
func eventsWithin(seq []trace.Node, budget int) bool {
	var count func(seq []trace.Node, times int) bool
	count = func(seq []trace.Node, times int) bool {
		for _, n := range seq {
			switch x := n.(type) {
			case *trace.RSD:
				budget -= times
			case *trace.Loop:
				if x.Iters > 0 && (x.Iters > budget/times || !count(x.Body, times*x.Iters)) {
					return false
				}
			}
			if budget < 0 {
				return false
			}
		}
		return true
	}
	return count(seq, 1)
}
