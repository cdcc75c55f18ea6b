package mpnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/trace"
)

const counterexampleGoldenPath = "testdata/counterexample_golden.json"

var siteField = regexp.MustCompile(`site=\d+`)

// traceDigest is the sha256 of the encoded trace with every site= value
// replaced by the order of its first appearance: a collected call site hashes
// program counters and file paths, which move with every recompile or
// checkout, while which events share a site does not.
func traceDigest(t testing.TB, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	order := map[string]int{}
	renumbered := siteField.ReplaceAllFunc(buf.Bytes(), func(m []byte) []byte {
		i, ok := order[string(m)]
		if !ok {
			i = len(order)
			order[string(m)] = i
		}
		return strconv.AppendInt([]byte("site="), int64(i), 10)
	})
	sum := sha256.Sum256(renumbered)
	return hex.EncodeToString(sum[:])
}

// TestCounterexampleGolden pins the concrete trace each golden net's
// counterexample becomes (CounterexampleTrace), by the digest of its encoding.
// After a deliberate change to what it emits:
// `go test -run CounterexampleGolden ./internal/mpnet/ -update`.
func TestCounterexampleGolden(t *testing.T) {
	cases := goldenCases()
	got := map[string]string{}
	for i, net := range goldenNets(t) {
		v := net.Check(&Options{MaxStates: cases[i].maxStates})
		if v.Counterexample == nil {
			continue
		}
		tr, err := CounterexampleTrace(net, v.Counterexample)
		if err != nil {
			t.Fatalf("%s: CounterexampleTrace: %v", cases[i].name, err)
		}
		got[cases[i].name] = traceDigest(t, tr)
	}
	if len(got) != 2 {
		t.Errorf("%d golden nets have a counterexample, want 2 (figure5, cross-coupled): %v", len(got), got)
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(counterexampleGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(counterexampleGoldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", counterexampleGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d counterexamples, the suite %d", len(want), len(got))
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: counterexample trace digest %s, golden %s", name, g, want[name])
		}
	}
}
