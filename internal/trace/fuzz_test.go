package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// FuzzDecode fuzzes the untrusted-upload entry point with the codec's
// lossless property: whatever Decode accepts must Encode to text that decodes
// to the same trace (traceDiff), Decode(Encode(Decode(x))) = Decode(x).
// Decode itself must only ever return an error — never panic, never allocate
// unboundedly (the MaxDecode bounds are exercised by whatever counts the
// fuzzer invents).
func FuzzDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics/hangs are the bugs
		}
		var text bytes.Buffer
		if err := trace.Encode(&text, tr); err != nil {
			t.Fatalf("Encode of accepted trace failed: %v", err)
		}
		back, err := trace.Decode(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("encoded trace does not decode: %v\n%s", err, text.Bytes())
		}
		if d := traceDiff(tr, back); d != "" {
			t.Fatalf("Decode(Encode(t)) differs from t: %s\n%s", d, text.Bytes())
		}
	})
}

// decodeSeeds are FuzzDecode's seeds, and FuzzWalk's: a real
// collector-produced trace plus hand-written fragments covering nesting,
// wildcards, vectors and compute histograms.
func decodeSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.CollectRingTrace(tb, 8)); err != nil {
		tb.Fatalf("Encode seed: %v", err)
	}
	seeds = append(seeds, buf.Bytes())
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 0\n"))
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 1 0,2\ngroups 1\n"+
		"group 0:3 2\n"+
		"loop 7 1\n"+
		"rsd op=Recv site=9 ranks=0:3 comm=0 csize=4 peer=any tag=0 size=64 root=-1 wildcard=1\n"+
		"rsd op=Alltoallv site=4 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=16 root=-1 counts=4,4,4,4\n"))
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n"+
		"rsd op=Send site=3 ranks=0:1 comm=0 csize=2 peer=rel1 tag=5 size=8 root=-1 compute=\"v1 10 2 5.5 30.25\"\n"))
	seeds = append(seeds, []byte("scalatrace-go 9\n"))
	// A communicator group that repeats a member (rejected: the member would
	// have two communicator ranks) beside a permuted one that does not.
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 4\ncomms 2\ncomm 1 3,1,2\ncomm 2 0,0,1\ngroups 0\n"))
	seeds = append(seeds, []byte("# comment\nscalatrace-go 1\nnprocs 1\ncomms 0\ngroups 1\ngroup 0 1\n"+
		"rsd op=Init site=0 ranks=0 comm=0 csize=1 peer=- tag=0 size=0 root=-1\n"))
	// Wildcard-heavy seed shaped like the verifier's counterexample traces:
	// a receiver whose wildcard receive precedes a concrete receive of the
	// same (peer, tag), the pattern whose naive resolution deadlocks.
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 3\ncomms 0\ngroups 3\n"+
		"group 0 1\ngroup 1 1\ngroup 2 1\n"+
		"rsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n"+
		"rsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n"+
		"rsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=any tag=0 size=64 root=-1 wildcard=1\n"+
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	// Looped wildcards with mixed tags and nonblocking completion — the
	// densest shape the MP-net exporter consumes (LU's sweep pattern).
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 4\n"+
		"loop 5 3\n"+
		"rsd op=Irecv site=10 ranks=0:3 comm=0 csize=4 peer=any tag=500 size=40 root=-1 wildcard=1\n"+
		"rsd op=Send site=11 ranks=0:3 comm=0 csize=4 peer=rel1 tag=500 size=40 root=-1\n"+
		"rsd op=Waitall site=12 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n"))
	// The verifier's pinned counterexample form: every wildcard rewritten
	// to a concrete absolute peer, wildcard flag dropped.
	seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 3\ncomms 0\ngroups 3\n"+
		"group 0 1\ngroup 1 1\ngroup 2 1\n"+
		"rsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1 compute=\"v1 100 1 100 100\"\n"+
		"rsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n"+
		"rsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"+
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	// Histograms the fmt scanner read a prefix of (rejected now, see stats'
	// TestHistogramUnmarshalErrors), then wildcard flags: 0 is read, 2 is not.
	for _, field := range []string{`compute="12abc 1 1 1 3=12"`, `compute="3 1x 1 1"`, `compute="3 3 1 1 2=1,5=9"`,
		`compute="3 1 1 1 2=1 2=2"`, `compute="3 1 1 1"`, "peer=any wildcard=0", "peer=any wildcard=2"} {
		seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n"+
			"rsd op=Recv site=3 ranks=0:1 comm=0 csize=2 tag=5 size=8 root=-1 "+field+"\n"))
	}

	// Compute values no sample stream produces (rejected, stats.ErrBadMoments).
	for _, field := range []string{`compute="1 +Inf +Inf +Inf 0=1"`, `compute="1 NaN NaN NaN 0=1"`, `compute="1 -5 -5 -5 0=1"`} {
		seeds = append(seeds, []byte("scalatrace-go 1\nnprocs 2\ncomms 0\ngroups 1\ngroup 0:1 1\n"+
			"rsd op=Send site=3 ranks=0:1 comm=0 csize=2 peer=rel1 tag=5 size=8 root=-1 "+field+"\n"))
	}
	return seeds
}
