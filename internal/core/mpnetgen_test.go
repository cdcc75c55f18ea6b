package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

func collectWildcard(t *testing.T) *trace.Trace {
	t.Helper()
	n := 3
	col := trace.NewCollector(n)
	_, err := mpi.Run(n, netmodel.Ideal(), func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Recv(r.World(), mpi.AnySource, 0, 16)
			r.Recv(r.World(), mpi.AnySource, 0, 16)
		} else {
			r.Send(r.World(), 0, 0, 16)
		}
	}, mpi.WithTracer(col.TracerFor))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

func TestGenerateMPNetKeepsWildcards(t *testing.T) {
	raw, err := NewPipeline(collectWildcard(t), nil).Render("mpnet")
	if err != nil {
		t.Fatalf("Render(mpnet): %v", err)
	}
	var doc struct {
		NProcs    int `json:"nprocs"`
		Wildcards int `json:"wildcards"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	// The model backend must NOT resolve wildcards: the artifact's value
	// is modeling the nondeterminism.
	if doc.NProcs != 3 || doc.Wildcards != 2 {
		t.Fatalf("artifact: nprocs=%d wildcards=%d, want 3 and 2", doc.NProcs, doc.Wildcards)
	}
}

func TestGenerateMPNetTLA(t *testing.T) {
	mod, err := NewPipeline(collectWildcard(t), nil).Render("tla")
	if err != nil {
		t.Fatalf("Render(tla): %v", err)
	}
	if !strings.Contains(mod, "---- MODULE CommModel ----") || !strings.Contains(mod, "recv-any") {
		t.Fatalf("TLA artifact malformed:\n%s", mod)
	}
}

// TestCollectiveOpMismatchIsRefused: a Barrier meeting an Allreduce on one
// communicator is refused by the MP-net lowering, and so by verification and
// the model backends, in Algorithm 1's words.
func TestCollectiveOpMismatchIsRefused(t *testing.T) {
	tr, err := trace.Decode(strings.NewReader("scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 2\n" +
		"group 0 1\nrsd op=Barrier site=1 ranks=0 comm=0 csize=2 peer=- tag=0 size=0 root=-1\n" +
		"group 1 1\nrsd op=Allreduce site=2 ranks=1 comm=0 csize=2 peer=- tag=0 size=8 root=-1\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, fromTrace := mpnet.FromTrace(tr, nil)
	_, verify := mpnet.VerifyWithReplay(tr, nil, netmodel.BlueGeneL())
	_, generate := NewPipeline(tr, nil).Render("mpnet")
	_, aligned := align.Align(tr)
	for _, err := range []error{fromTrace, verify, generate, aligned} {
		if err == nil || !strings.Contains(err.Error(), "collective mismatch on comm 0") {
			t.Errorf("err = %v, want a collective mismatch on comm 0", err)
		}
	}
}
