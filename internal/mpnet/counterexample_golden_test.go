package mpnet

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/trace"
)

// TestCounterexampleGolden pins the concrete trace each golden net's
// counterexample becomes (CounterexampleTrace), by the digest of its encoding.
// After a deliberate change to what it emits:
// `go test -run CounterexampleGolden ./internal/mpnet/ -update -v`.
func TestCounterexampleGolden(t *testing.T) {
	want := golden.LoadMap(t, filepath.Join("testdata", "counterexample_golden.json"))
	cases := goldenCases()
	var found []string
	for i, net := range goldenNets(t) {
		v := net.Check(&Options{MaxStates: cases[i].maxStates})
		if v.Counterexample == nil {
			continue
		}
		tr, err := CounterexampleTrace(net, v.Counterexample)
		if err != nil {
			t.Fatalf("%s: CounterexampleTrace: %v", cases[i].name, err)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		want.Check(t, cases[i].name, golden.TraceDigest(buf.Bytes()))
		found = append(found, cases[i].name)
	}
	if len(found) != 2 {
		t.Errorf("%d golden nets have a counterexample, want 2 (figure5, cross-coupled): %v", len(found), found)
	}
}
