package mpip

import (
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

func profileOf(t *testing.T, n int, body func(*mpi.Rank)) *Profile {
	t.Helper()
	p := NewProfile()
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(p.TracerFor)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p
}

func ringBody(size int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		n := r.Size()
		c := r.World()
		for i := 0; i < 3; i++ {
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, size)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, size)
			r.Waitall(rq, sq)
		}
		r.Allreduce(c, 8)
	}
}

func TestProfileCounts(t *testing.T) {
	n := 4
	p := profileOf(t, n, ringBody(1000))
	if got := p.Count(mpi.OpIsend); got != int64(3*n) {
		t.Fatalf("Isend count = %d, want %d", got, 3*n)
	}
	if got := p.Count(mpi.OpIrecv); got != int64(3*n) {
		t.Fatalf("Irecv count = %d, want %d", got, 3*n)
	}
	if got := p.Count(mpi.OpWaitall); got != int64(3*n) {
		t.Fatalf("Waitall count = %d, want %d", got, 3*n)
	}
	if got := p.Count(mpi.OpAllreduce); got != int64(n) {
		t.Fatalf("Allreduce count = %d, want %d", got, n)
	}
	if got := p.Count(mpi.OpInit); got != int64(n) {
		t.Fatalf("Init count = %d, want %d", got, n)
	}
	if got := p.Count(mpi.OpFinalize); got != int64(n) {
		t.Fatalf("Finalize count = %d, want %d", got, n)
	}
}

func TestProfileBytes(t *testing.T) {
	n := 4
	p := profileOf(t, n, ringBody(1000))
	if got := p.Bytes(mpi.OpIsend); got != int64(3*n*1000) {
		t.Fatalf("Isend bytes = %d, want %d", got, 3*n*1000)
	}
	if got := p.Bytes(mpi.OpAllreduce); got != int64(8*n) {
		t.Fatalf("Allreduce bytes = %d, want %d", got, 8*n)
	}
	// Wait operations must not contribute volume even though their events
	// carry a request count in Size.
	if got := p.Bytes(mpi.OpWaitall); got != 0 {
		t.Fatalf("Waitall bytes = %d, want 0", got)
	}
}

func TestTotals(t *testing.T) {
	p := profileOf(t, 2, func(r *mpi.Rank) {
		if r.Rank() == 0 {
			r.Send(r.World(), 1, 0, 77)
		} else {
			r.Recv(r.World(), 0, 0, 77)
		}
	})
	want := map[mpi.Op]int64{mpi.OpInit: 2, mpi.OpSend: 1, mpi.OpRecv: 1, mpi.OpFinalize: 2}
	for op := 0; op < mpi.NumOps; op++ {
		if got := p.Count(mpi.Op(op)); got != want[mpi.Op(op)] {
			t.Errorf("%v calls = %d, want %d", mpi.Op(op), got, want[mpi.Op(op)])
		}
	}
}

func TestDiffMatchingProfiles(t *testing.T) {
	a := profileOf(t, 4, ringBody(512))
	b := profileOf(t, 4, ringBody(512))
	rep := Diff(a, b)
	if !rep.Match() {
		t.Fatalf("identical runs reported as mismatch:\n%s", rep)
	}
	if got := rep.MaxErrPct(); got != 0 {
		t.Errorf("MaxErrPct = %v, want 0", got)
	}
	if len(rep.Rows) == 0 {
		t.Error("report has no rows; matching operations must still be listed")
	}
	for _, row := range rep.Rows {
		if row.CountA == 0 && row.CountB == 0 && row.BytesA == 0 && row.BytesB == 0 {
			t.Errorf("all-zero operation %s listed", row.Op)
		}
	}
	if strings.Contains(rep.String(), "*") {
		t.Errorf("matching report carries mismatch markers:\n%s", rep)
	}
}

func TestDiffDetectsMismatch(t *testing.T) {
	a := profileOf(t, 4, ringBody(512))
	b := profileOf(t, 4, ringBody(513))
	rep := Diff(a, b)
	if rep.Match() {
		t.Fatalf("differing runs reported as match:\n%s", rep)
	}
	// Message sizes changed 512 -> 513; call counts are unchanged, so the
	// largest error is the bytes error of the point-to-point ops, ~0.195%.
	wantErr := 100.0 * 1 / 512
	if got := rep.MaxErrPct(); got < wantErr*0.99 || got > wantErr*1.01 {
		t.Errorf("MaxErrPct = %v, want about %v", got, wantErr)
	}
	var isend *ReportRow
	for i := range rep.Rows {
		if rep.Rows[i].Op == mpi.OpIsend {
			isend = &rep.Rows[i]
		}
	}
	if isend == nil {
		t.Fatalf("no Isend row in:\n%s", rep)
	}
	if isend.CountErrPct != 0 {
		t.Errorf("Isend count error = %v, want 0 (only bytes changed)", isend.CountErrPct)
	}
	if isend.BytesErrPct == 0 {
		t.Error("Isend bytes error = 0, want nonzero")
	}
	out := rep.String()
	if !strings.Contains(out, "Profile Comparison") || !strings.Contains(out, " *") {
		t.Errorf("report misses header or mismatch marker:\n%s", out)
	}
}

func TestReportFormat(t *testing.T) {
	p := profileOf(t, 2, ringBody(64))
	rep := p.String()
	for _, want := range []string{"Isend", "Irecv", "Waitall", "Allreduce", "Finalize", "Count", "Bytes"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "Alltoall ") {
		t.Error("report lists operations that never ran")
	}
}
