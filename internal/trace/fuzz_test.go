package trace

import (
	"bytes"
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

// FuzzDecode fuzzes the untrusted-upload entry point with the canonical
// round-trip property: any input Decode accepts must Encode to a canonical
// form that decodes again and re-encodes to the identical bytes (Encode is a
// fixed point after one canonicalization). Decode itself must only ever
// return an error — never panic, never allocate unboundedly (the MaxDecode
// bounds are exercised by whatever counts the fuzzer invents).
func FuzzDecode(f *testing.F) {
	// Seed with a real collector-produced trace plus hand-written fragments
	// covering nesting, wildcard, vectors and compute histograms.
	var buf bytes.Buffer
	if err := Encode(&buf, collectRingTrace(f, 8)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 0\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 1 0,2\ngroups 1\n" +
		"group 0:3 2\n" +
		"loop 7 1\n" +
		"rsd op=Recv site=9 ranks=0:3 comm=0 csize=4 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Alltoallv site=4 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=16 root=-1 counts=4,4,4,4\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n" +
		"rsd op=Send site=3 ranks=0:1 comm=0 csize=2 peer=rel1 tag=5 size=8 root=-1 compute=\"v1 10 2 5.5 30.25\"\n"))
	f.Add([]byte("scalatrace-go 9\n"))
	// A communicator group that repeats a member (rejected: the member would
	// have two communicator ranks) beside a permuted one that does not.
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 1 3,1,2\ncomm 2 0,0,1\ngroups 0\n"))
	f.Add([]byte("# comment\nscalatrace-go 1\nnprocs 1\ncomms 0\ngroups 1\ngroup 0 1\n" +
		"rsd op=Init site=0 ranks=0 comm=0 csize=1 peer=- tag=0 size=0 root=-1\n"))
	// Wildcard-heavy seed shaped like the verifier's counterexample traces:
	// a receiver whose wildcard receive precedes a concrete receive of the
	// same (peer, tag), the pattern whose naive resolution deadlocks.
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 0\ngroups 3\n" +
		"group 0 1\ngroup 1 1\ngroup 2 1\n" +
		"rsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"rsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"rsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	// Looped wildcards with mixed tags and nonblocking completion — the
	// densest shape the MP-net exporter consumes (LU's sweep pattern).
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 4\n" +
		"loop 5 3\n" +
		"rsd op=Irecv site=10 ranks=0:3 comm=0 csize=4 peer=any tag=500 size=40 root=-1 wildcard=1\n" +
		"rsd op=Send site=11 ranks=0:3 comm=0 csize=4 peer=rel1 tag=500 size=40 root=-1\n" +
		"rsd op=Waitall site=12 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n"))
	// The verifier's pinned counterexample form: every wildcard rewritten
	// to a concrete absolute peer, wildcard flag dropped.
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 0\ngroups 3\n" +
		"group 0 1\ngroup 1 1\ngroup 2 1\n" +
		"rsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1 compute=\"v1 100 1 100 100\"\n" +
		"rsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"rsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics/hangs are the bugs
		}
		var first bytes.Buffer
		if err := Encode(&first, tr); err != nil {
			t.Fatalf("Encode of accepted trace failed: %v", err)
		}
		back, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, back); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Encode is not a fixed point:\n--- first\n%s\n--- second\n%s", first.Bytes(), second.Bytes())
		}
	})
}
