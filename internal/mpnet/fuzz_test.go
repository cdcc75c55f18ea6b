package mpnet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// FuzzExport drives the whole verification surface with untrusted trace
// documents: any input the trace codec accepts must lower into a net (or
// be refused with an error), export to JSON, and survive a bounded check —
// no panics, no unbounded exploration. When Algorithm 2 resolves the trace,
// its pins must name exactly the net's wildcard events and the pinned net
// verify checks must equal the resolved trace's own lowering
// (comparePinned). `make check` runs it.
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
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 3\n" +
		"group 0 1\nrsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 2 1\nrsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 1 2\nrsd op=Recv site=3 ranks=1 comm=0 csize=3 peer=any tag=0 size=64 root=-1 wildcard=1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs0 tag=0 size=64 root=-1\n"))
	f.Add([]byte("scalatrace-go 1\nnprocs 4\ncomms 1\ncomm 0 0,1,2,3\ngroups 1\ngroup 0:3 1\n" +
		"loop 3 3\n" +
		"rsd op=Irecv site=10 ranks=0:3 comm=0 csize=4 peer=any tag=500 size=40 root=-1 wildcard=1\n" +
		"rsd op=Send site=11 ranks=0:3 comm=0 csize=4 peer=rel1 tag=500 size=40 root=-1\n" +
		"rsd op=Waitall site=12 ranks=0:3 comm=0 csize=4 peer=- tag=0 size=0 root=-1\n"))
	// peer=abs-1 without the wildcard flag: a world source of mpi.AnySource,
	// hence a wildcard to the lowering and to Algorithm 2 alike.
	f.Add([]byte("scalatrace-go 1\nnprocs 3\ncomms 1\ncomm 0 0,1,2\ngroups 3\n" +
		"group 0 1\nrsd op=Send site=1 ranks=0 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 2 1\nrsd op=Send site=2 ranks=2 comm=0 csize=3 peer=abs1 tag=0 size=64 root=-1\n" +
		"group 1 3\nrsd op=Irecv site=3 ranks=1 comm=0 csize=3 peer=abs-1 tag=0 size=64 root=-1\n" +
		"rsd op=Recv site=4 ranks=1 comm=0 csize=3 peer=abs-1 tag=0 size=64 root=-1\n" +
		"rsd op=Waitall site=5 ranks=1 comm=0 csize=3 peer=- tag=0 size=0 root=-1\n"))

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
		if net.Wildcards == 0 {
			return
		}
		if pins, err := wildcard.Assign(tr); err == nil {
			comparePinned(t, net, pins, opts)
		}
	})
}

// FuzzResolverAgreesWithNet holds Algorithm 2 to the two agreements Report's
// doc comment claims, on every document Decode accepts whose net FromTrace
// builds: pins wildcard.Assign returns are admitted by the net and run to
// completion (ForcedRun), and when Assign reports a deadlock, a bounded check
// that explores the whole net finds a counterexample, since the stuck
// traversal is one of the net's executions. It also holds the collective
// rules of Algorithms 1 and 2 to the lowering's: when FromTrace refuses a
// trace with a *trace.MismatchError, align.Align and Assign each refuse it
// too, with a mismatch or a stuck rendezvous, and when either of them finds
// a mismatch, so does FromTrace. Seeds: FuzzDecode's documents
// (internal/trace/testdata/seeds.txt) and Figure 5. `make check` runs it.
func FuzzResolverAgreesWithNet(f *testing.F) {
	text, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "seeds.txt"))
	if err != nil {
		f.Fatal(err)
	}
	// Each document follows a line "=== what it holds".
	for _, doc := range strings.Split(string(text), "=== ")[1:] {
		_, doc, _ = strings.Cut(doc, "\n")
		f.Add([]byte(doc))
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, collectFigure5(f)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The event bound also bounds Assign's traversal, which walks the
		// events the net holds.
		opts := &Options{MaxEvents: 1 << 10, MaxStates: 1 << 12}
		net, err := FromTrace(tr, opts)
		netMismatch := errors.As(err, new(*trace.MismatchError))
		if err != nil && !netMismatch {
			return
		}
		_, errAlign := align.Align(tr)
		pins, errAssign := wildcard.Assign(tr)
		for name, e := range map[string]error{"Align": errAlign, "Assign": errAssign} {
			switch mismatch := errors.As(e, new(*trace.MismatchError)); {
			case netMismatch && !mismatch && !errors.As(e, new(*trace.StuckError)):
				t.Fatalf("FromTrace refuses the trace with %v, %s returns %v", err, name, e)
			case mismatch && !netMismatch:
				t.Fatalf("%s returns %v, FromTrace accepts the trace", name, e)
			}
		}
		if netMismatch {
			return
		}
		var de *wildcard.DeadlockError
		switch {
		case errAssign == nil:
			if completed, blocked := net.ForcedRun(pins); !completed {
				t.Fatalf("the net rejects Algorithm 2's pins %v: %s", pins, strings.Join(blocked, "; "))
			}
		case errors.As(errAssign, &de):
			if v := net.Check(opts); v.Exhaustive && v.Counterexample == nil {
				t.Fatalf("Algorithm 2 reports %v, an exhaustive check finds no deadlock", errAssign)
			}
		}
	})
}
