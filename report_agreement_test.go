package repro

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/mpnet"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// TestConsumersReportAlike feeds three broken traces to the three consumers
// of the collective rendezvous: Algorithm 1 (align.Align), Algorithm 2
// (wildcard.Assign) and the MP-net lowering and checker (mpnet.FromTrace,
// Net.Check). Each case has one error type, and a stuck traversal's report
// is the checker's counterexample, line for line. Algorithm 1 matches no
// point-to-point traffic, so a receive that never matches is not its error.
func TestConsumersReportAlike(t *testing.T) {
	const head = "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\n"
	for _, tc := range []struct {
		name, text string
		mismatch   bool   // a *trace.MismatchError, else a *trace.StuckError
		aligns     bool   // Algorithm 1 completes
		blocked    string // the stuck report, lines joined by "; "
	}{
		{"receives first", head + "groups 1\ngroup 0:1 2\n" +
			"rsd op=Recv site=1 ranks=0:1 comm=0 csize=2 peer=rel+1 tag=3 size=8 root=-1\n" +
			"rsd op=Send site=2 ranks=0:1 comm=0 csize=2 peer=rel+1 tag=3 size=8 root=-1\n",
			false, true, "rank 0 blocked on Recv (peer abs1, tag 3, comm 0); rank 1 blocked on Recv (peer abs0, tag 3, comm 0)"},
		{"Barrier vs Allreduce", head + "groups 2\n" +
			"group 0 1\nrsd op=Barrier site=1 ranks=0 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n" +
			"group 1 1\nrsd op=Allreduce site=2 ranks=1 comm=0 csize=2 peer=- tag=0 size=8 root=-1\n",
			true, false, ""},
		{"a collective rank 1 never reaches", head + "groups 2\n" +
			"group 0 1\nrsd op=Barrier site=1 ranks=0 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n" +
			"group 1 1\nrsd op=Send site=2 ranks=1 comm=0 csize=2 peer=abs0 tag=4 size=8 root=-1\n",
			false, false, "rank 0 blocked on Barrier (peer -, tag 0, comm 0)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trace.Decode(strings.NewReader(tc.text))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			_, errAlign := align.Align(tr)
			_, errAssign := wildcard.Assign(tr)
			net, errNet := mpnet.FromTrace(tr, nil)
			if tc.mismatch {
				for name, err := range map[string]error{"Align": errAlign, "Assign": errAssign, "FromTrace": errNet} {
					if mm := (*trace.MismatchError)(nil); !errors.As(err, &mm) {
						t.Errorf("%s = %v, want a *trace.MismatchError", name, err)
					}
				}
				return
			}
			if errNet != nil {
				t.Fatalf("FromTrace: %v", errNet)
			}
			v := net.Check(nil)
			if v.Counterexample == nil {
				t.Fatalf("the checker finds no deadlock: %+v", v)
			}
			if got := strings.Join(v.Counterexample.Blocked, "; "); got != tc.blocked {
				t.Errorf("checker Blocked = %q, want %q", got, tc.blocked)
			}
			reports := map[string]error{"Assign": errAssign}
			if tc.aligns {
				if errAlign != nil {
					t.Errorf("Align = %v, want nil", errAlign)
				}
			} else {
				reports["Align"] = errAlign
			}
			for name, err := range reports {
				var stuck *trace.StuckError
				if !errors.As(err, &stuck) {
					t.Errorf("%s = %v, want a *trace.StuckError", name, err)
				} else if got := strings.Join(stuck.Blocked, "; "); got != tc.blocked {
					t.Errorf("%s Blocked = %q, want %q", name, got, tc.blocked)
				}
			}
		})
	}
}
