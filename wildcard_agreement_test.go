package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// matchRecorder keeps, for one rank of a traced run, the world source each
// wildcard receive actually matched, keyed by the receive's ordinal among the
// rank's events — the numbering of trace.Pin.Event.
type matchRecorder struct {
	events  int
	matched map[int]int
}

func (m *matchRecorder) Record(ev *mpi.Event) {
	if ev.SourceWasWildcard {
		m.matched[m.events] = ev.PeerWorld
	}
	m.events++
}

// TestAlgorithm2AgreesWithEngine pins how often Algorithm 2's decision for a
// wildcard receive (wildcard.Assign, FIFO per sender over the trace) names
// the sender the engine matched in the traced run ((arrival, source) order in
// virtual time): LU class S at 16, 36 and 64 ranks on BlueGene/L. Every
// decision must be for a receive the run posted as a wildcard, and every
// such receive must have one. A change to either matching order moves these
// counts.
func TestAlgorithm2AgreesWithEngine(t *testing.T) {
	for _, tc := range []struct{ n, agree, wildcards int }{
		{16, 6742, 9600},
		{36, 15742, 24000},
		{64, 28214, 44800},
	} {
		t.Run(fmt.Sprintf("lu-%d", tc.n), func(t *testing.T) {
			t.Parallel()
			col := trace.NewCollector(tc.n)
			recs := make([]matchRecorder, tc.n)
			body := apps.ByName("lu").Body(apps.NewConfig(tc.n, apps.ClassS))
			if _, err := mpi.Run(tc.n, netmodel.BlueGeneL(), body, mpi.WithTracer(func(rank int) mpi.Tracer {
				recs[rank].matched = map[int]int{}
				return mpi.MultiTracer{col.TracerFor(rank), &recs[rank]}
			})); err != nil {
				t.Fatal(err)
			}
			pins, err := wildcard.Assign(col.Trace())
			if err != nil {
				t.Fatal(err)
			}
			agree, wildcards := 0, 0
			for rank, rankPins := range pins {
				if len(rankPins) != len(recs[rank].matched) {
					t.Fatalf("rank %d: %d decisions for %d wildcard receives", rank, len(rankPins), len(recs[rank].matched))
				}
				for _, p := range rankPins {
					src, ok := recs[rank].matched[p.Event]
					if !ok {
						t.Fatalf("rank %d event %d: a decision for a receive the run did not post as a wildcard", rank, p.Event)
					}
					if src == p.Source {
						agree++
					}
				}
				wildcards += len(rankPins)
			}
			if agree != tc.agree || wildcards != tc.wildcards {
				t.Errorf("Algorithm 2 agrees with the engine on %d of %d wildcard receives, want %d of %d",
					agree, wildcards, tc.agree, tc.wildcards)
			}
			t.Logf("%d of %d (%.0f %%)", agree, wildcards, 100*float64(agree)/float64(wildcards))
		})
	}
}
