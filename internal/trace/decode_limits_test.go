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

// TestDecodeRejectsHostileInput exercises the untrusted-upload bounds and the
// trace rules: every declared count is validated before the decoder allocates
// for it, a parse error names the offending line, and a parsed trace that
// breaks a rule is refused with the rule named — one row per rule at least,
// among them the uploads each consumer used to handle by a convention of its
// own.
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
			want:  "comm 2 lists a member twice",
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
			name:  "no communicator table",
			input: "scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 0\n",
			want:  "rule 2, comm 0 is the world: comm 0 is [], want 0…1 in order",
		},
		{
			name:  "comm 0 a permutation of the world",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 2,1,0\ngroups 1\ngroup 0:2 0\n",
			want:  "rule 2, comm 0 is the world: comm 0 is [2 1 0], want 0…2 in order",
		},
		{
			name:  "rank in no group",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 1\ngroup 0:1 0\n",
			want:  "rule 1, the groups partition the world: rank 2 is in no group",
		},
		{
			name:  "rank in two groups",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 2\ngroup 0:1 0\ngroup 1:2 0\n",
			want:  "rule 1, the groups partition the world: rank 1 is in two groups",
		},
		{
			name: "leaf names a rank outside its group",
			input: "scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 0 0,1,2,3\ngroups 2\n" +
				"group 0:1 1\nrsd op=Send site=1 ranks=0,1:3:2 comm=0 csize=4 peer=rel1 tag=0 size=4 root=-1\n" +
				"group 2:3 0\n",
			want: "rule 3, a leaf names only ranks of its group: Send at site 1 names ranks 0,1:3:2 (group 0:1)",
		},
		{
			name: "collective on an unlisted communicator",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Barrier site=1 ranks=0:1 comm=7 csize=2 peer=- tag=0 size=0 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Barrier at site 1 names comm 7, which the trace does not list",
		},
		{
			name: "collective whose communicator omits its caller",
			input: "scalatrace-go 1\nnprocs 3\ncomms 2\ncomm 0 0,1,2\ncomm 1 1,2\ngroups 3\n" +
				"group 0 1\nrsd op=Barrier site=1 ranks=0 comm=1 csize=2 peer=- tag=0 size=0 root=-1\n" +
				"group 1 1\nrsd op=Barrier site=1 ranks=1 comm=1 csize=2 peer=- tag=0 size=0 root=-1\n" +
				"group 2 1\nrsd op=Barrier site=1 ranks=2 comm=1 csize=2 peer=- tag=0 size=0 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Barrier at site 1: rank 0 is not a member of comm 1 (group 0)",
		},
		{
			name: "csize of another communicator",
			input: "scalatrace-go 1\nnprocs 2\ncomms 2\ncomm 0 0,1\ncomm 1 1\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Barrier site=1 ranks=0:1 comm=1 csize=2 peer=- tag=0 size=0 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Barrier at site 1 has csize 2, comm 1 has 1 members",
		},
		{
			name: "communicator without members",
			input: "scalatrace-go 1\nnprocs 2\ncomms 2\ncomm 0 0,1\ncomm 1 -\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Alltoallv site=1 ranks={} comm=1 csize=0 peer=- tag=0 size=8 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Alltoallv at site 1 names comm 1, which has no members",
		},
		{
			name: "finalize on an unlisted communicator",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Finalize site=1 ranks=0:1 comm=7 csize=2 peer=- tag=0 size=0 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Finalize at site 1 names comm 7, which the trace does not list",
		},
		{
			name: "wait with the csize of no communicator",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Wait site=1 ranks=0:1 comm=0 csize=0 peer=rel1 tag=0 size=0 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Wait at site 1 has csize 0, comm 0 has 2 members",
		},
		{
			name: "root outside the communicator",
			input: "scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 0 0,1,2,3\ngroups 1\ngroup 0:3 1\n" +
				"rsd op=Bcast site=1 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=8 root=4\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Bcast at site 1 has root 4, not a rank of comm 0",
		},
		{
			name: "send to a rank outside the world",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 2\n" +
				"group 0 1\nrsd op=Send site=1 ranks=0 comm=0 csize=2 peer=abs5 tag=0 size=8 root=-1\n" +
				"group 1 0\n",
			want: "rule 5, a point-to-point peer is a world rank, or any on a receive: Send at site 1: rank 0's peer abs5 is not a rank of comm 0",
		},
		{
			name: "send to any source",
			input: "scalatrace-go 1\nnprocs 2\ncomms 1\ncomm 0 0,1\ngroups 1\ngroup 0:1 1\n" +
				"rsd op=Isend site=1 ranks=0:1 comm=0 csize=2 peer=any tag=0 size=8 root=-1\n",
			want: "rule 5, a point-to-point peer is a world rank, or any on a receive: Isend at site 1: rank 0's peer any is not a rank of comm 0",
		},
		{
			name: "xor peer past a world that is not a power of two",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 1\ngroup 0:2 1\n" +
				"rsd op=Send site=1 ranks=0:2 comm=0 csize=3 peer=xor1 tag=0 size=8 root=-1\n",
			want: "rule 5, a point-to-point peer is a world rank, or any on a receive: Send at site 1: rank 2's peer xor1 is not a rank of comm 0",
		},
		{
			name: "vector peer outside the communicator",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 1\ngroup 0:2 1\n" +
				"rsd op=Recv site=1 ranks=0:2 comm=0 csize=3 peer=vec tag=0 size=8 root=-1 pvec=1,-1,3\n",
			want: "rule 5, a point-to-point peer is a world rank, or any on a receive: Recv at site 1: rank 2's peer vec is not a rank of comm 0",
		},
		{
			name: "vector peers fewer than the leaf's ranks",
			input: "scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 1\ngroup 0:2 1\n" +
				"rsd op=Send site=1 ranks=0:2 comm=0 csize=3 peer=vec tag=0 size=8 root=-1 pvec=1,2\n",
			want: "rule 5, a point-to-point peer is a world rank, or any on a receive: Send at site 1: rank 2's peer vec is not a rank of comm 0",
		},
		{
			name: "sub-communicator leaf naming a non-member among members",
			input: "scalatrace-go 1\nnprocs 6\ncomms 2\ncomm 0 0,1,2,3,4,5\ncomm 1 5,1,3\ngroups 1\ngroup 0:5 1\n" +
				"rsd op=Allreduce site=1 ranks=1,3:5 comm=1 csize=3 peer=- tag=0 size=8 root=-1\n",
			want: "rule 4, a leaf's ranks are members of its listed communicator: Allreduce at site 1: rank 4 is not a member of comm 1",
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
			if !strings.Contains(err.Error(), "line ") && !strings.Contains(err.Error(), ": rule ") {
				t.Fatalf("error %q names neither a line nor a rule", err)
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
