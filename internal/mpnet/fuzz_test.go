package mpnet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

// FuzzExport drives the whole verification surface with untrusted trace
// documents: any input the trace codec accepts must lower into a net (or
// be refused with an error), export to JSON, and survive a bounded check —
// no panics, no unbounded exploration. This is what `make verify-fuzz`
// runs.
func FuzzExport(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, collectFigure5(f)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := trace.Encode(&buf, collect(f, 4, ringBody)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := trace.Encode(&buf, collect(f, 8, multiCommBody)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 0\ngroups 3\n" +
		"group 0 1\ngroup 1 1\ngroup 2 1\n" +
		"rsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"rsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"rsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 0\ngroups 1\ngroup 0:3 4\n" +
		"loop 3 3\n" +
		"rsd op=Irecv site=10 ranks=0:3 comm=0 csize=4 peer=any tag=500 size=40 root=-1 wildcard=1\n" +
		"rsd op=Send site=11 ranks=0:3 comm=0 csize=4 peer=rel1 tag=500 size=40 root=-1\n" +
		"rsd op=Waitall site=12 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(strings.NewReader(string(data)))
		if err != nil {
			return // the codec's job; FuzzDecode covers it
		}
		// Tight bounds keep a fuzzer-invented pathological trace from
		// turning one iteration into a state-space walk.
		opts := &Options{MaxEvents: 1 << 10, MaxStates: 1 << 10}
		net, err := FromTrace(tr, opts)
		if err != nil {
			return // over-budget or malformed nets are refused, not built
		}
		if _, err := ExportJSON(net); err != nil {
			t.Fatalf("ExportJSON failed on a built net: %v", err)
		}
		// ExportTLA may refuse (size bound) but must not panic, and renders
		// one module per net.
		mod, _ := ExportTLA(net, "Fuzz")
		if again, _ := ExportTLA(net, "Fuzz"); again != mod {
			t.Fatalf("ExportTLA rendered two different modules of one net")
		}
		v := net.Check(opts)
		if v == nil {
			t.Fatalf("Check returned nil verdict")
		}
		if v.DeadlockFree && v.Counterexample != nil {
			t.Fatalf("verdict claims deadlock-free with a counterexample")
		}
		if v.Counterexample != nil {
			// A counterexample must always reconstruct into a trace.
			if _, err := CounterexampleTrace(net, v.Counterexample); err != nil {
				t.Fatalf("CounterexampleTrace: %v", err)
			}
		}
	})
}
