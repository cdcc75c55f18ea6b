package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// collectRingTrace produces a real collector trace of an n-rank ring with a
// barrier and a broadcast — loops, point-to-point RSDs, collectives and
// compute histograms all present. Shared by the fuzz seeds and the
// limits tests.
func collectRingTrace(tb testing.TB, n int) *Trace {
	tb.Helper()
	col := NewCollector(n)
	body := func(r *mpi.Rank) {
		c := r.World()
		r.Bcast(c, 0, 256)
		for i := 0; i < 20; i++ {
			r.Compute(float64(3 + i%2))
			rq := r.Irecv(c, (r.Rank()+n-1)%n, 0, 1024)
			sq := r.Isend(c, (r.Rank()+1)%n, 0, 1024)
			r.Waitall(rq, sq)
		}
		r.Barrier(c)
	}
	if _, err := mpi.Run(n, netmodel.Ideal(), body, mpi.WithTracer(col.TracerFor)); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return col.Trace()
}

// TestDecodeRejectsHostileInput exercises the untrusted-upload bounds: every
// declared count is validated before the decoder allocates for it, and every
// rejection names the offending line.
func TestDecodeRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the error
	}{
		{
			name:  "huge nprocs",
			input: "scalatrace-go 1\nnprocs 99999999\n",
			want:  "nprocs 99999999 out of range",
		},
		{
			name:  "zero nprocs",
			input: "scalatrace-go 1\nnprocs 0\n",
			want:  "out of range",
		},
		{
			name:  "negative nprocs",
			input: "scalatrace-go 1\nnprocs -4\n",
			want:  "out of range",
		},
		{
			name:  "huge comm count",
			input: "scalatrace-go 1\nnprocs 4\ncomms 100000000\n",
			want:  "comm count 100000000 out of range",
		},
		{
			name:  "comm member outside world",
			input: "scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 1 0,9\ngroups 0\n",
			want:  "comm 1 member 9 outside world",
		},
		{
			name:  "comm larger than world",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 1 0,1,0,1\ngroups 0\n",
			want:  "comm 1 has 4 members but nprocs is 2",
		},
		{
			name:  "group member outside world",
			input: "scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:5 0\n",
			want:  "group 0:5 has a member outside world [0, 2)",
		},
		{
			name:  "comm member repeated",
			input: "scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 1 0,1\ncomm 2 0,0,1\ngroups 0\n",
			want:  "comm 2 lists member 0 twice",
		},
		{
			name:  "rank set of a hundred million members",
			input: "scalatrace-go 1\nnprocs 12\ncomms 0\ngroups 1\ngroup 0:11 1\nrsd op=Send site=1 ranks=1:110864359 comm=0 csize=12 peer=rel+1 tag=0 size=64 root=-1\n",
			want:  "holds more than 1048576 ranks",
		},
		{
			name:  "duplicate comm id",
			input: "scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 1 0,1\ncomm 1 2,3\ngroups 0\n",
			want:  "duplicate comm id 1",
		},
		{
			name:  "huge group count",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 2000000\n",
			want:  "group count 2000000 out of range",
		},
		{
			name:  "group node count over budget",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 99999999\n",
			want:  "exceeds remaining budget",
		},
		{
			name:  "negative group node count",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 -1\n",
			want:  "negative node count",
		},
		{
			name: "loop body count over budget",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"loop 10 99999999\n",
			want: "exceeds remaining budget",
		},
		{
			name: "negative loop iterations",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"loop -5 1\nrsd op=Barrier site=1 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n",
			want: "loop iteration count -5 out of range",
		},
		{
			name: "huge loop iterations",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				fmt.Sprintf("loop %d 1\nrsd op=Barrier site=1 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n", MaxDecodeLoopIters+1),
			want: "out of range",
		},
		{
			name: "negative message size",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"rsd op=Send site=1 ranks=0:3 comm=0 csize=4 peer=abs1 tag=0 size=-8 root=-1\n",
			want: "size -8 out of range",
		},
		{
			name: "infinite compute sum",
			input: "scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Send site=1 ranks=0:1 comm=0 csize=2 peer=rel1 tag=0 size=8 root=-1 compute=\"1 +Inf +Inf +Inf 0=1\"\n",
			want: "line 6: bad compute value",
		},
		{
			name: "NaN first-iteration max",
			input: "scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Send site=1 ranks=0:1 comm=0 csize=2 peer=rel1 tag=0 size=8 root=-1 first=\"1 1 1 NaN 0=1\"\n",
			want: "max is NaN",
		},
		{
			name: "huge csize",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"rsd op=Barrier site=1 ranks=0:3 comm=0 csize=99999999 peer=- tag=0 size=0 root=-1\n",
			want: "csize 99999999 out of range",
		},
		{
			name: "wildcard flag neither 0 nor 1",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"rsd op=Recv site=1 ranks=0:3 comm=0 csize=4 peer=any tag=0 size=8 root=-1 wildcard=yes\n",
			want: `bad wildcard value "yes"`,
		},
		{
			name: "histogram short of its count",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"rsd op=Barrier site=1 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1 compute=\"3 1 1 1\"\n",
			want: "stats: bins hold 0 samples, count is 3",
		},
		{
			name:  "trailing bytes on a count line",
			input: "scalatrace-go 1\nnprocs 4x\n",
			want:  "bad nprocs line",
		},
		{
			name: "trailing bytes on a loop line",
			input: "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\n" +
				"loop 2 1 1\nrsd op=Barrier site=1 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n",
			want: "bad loop line",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("Decode accepted hostile input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error %q does not carry a line number", err)
			}
		})
	}
}

// TestDecodeErrorsCarryLineNumbers pins the exact line number on a
// representative mid-file error.
func TestDecodeErrorsCarryLineNumbers(t *testing.T) {
	input := "scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 1\nrsd op=Nope site=1\n"
	_, err := Decode(strings.NewReader(input))
	if err == nil {
		t.Fatal("Decode accepted unknown op")
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("error %q should name line 6", err)
	}
}

// TestDecodeBudgetAllowsLegitimateTraces re-checks that the new bounds do
// not reject a real collector-produced trace.
func TestDecodeBudgetAllowsLegitimateTraces(t *testing.T) {
	tr := collectRingTrace(t, 16)
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode rejected a legitimate trace: %v", err)
	}
	if back.N != tr.N || back.TotalEvents() != tr.TotalEvents() {
		t.Fatalf("round trip changed the trace: %d/%d events vs %d/%d",
			back.N, back.TotalEvents(), tr.N, tr.TotalEvents())
	}
}
