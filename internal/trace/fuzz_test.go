package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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
// collector-produced trace plus the hand-written documents of
// testdata/seeds.txt, covering nesting, wildcards, vectors, compute histograms
// and inputs the codec rejects.
func decodeSeeds(tb testing.TB) [][]byte {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, trace.CollectRingTrace(tb, 8)); err != nil {
		tb.Fatalf("Encode seed: %v", err)
	}
	text, err := os.ReadFile(filepath.Join("testdata", "seeds.txt"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{buf.Bytes()}
	// Each document follows a line "=== what it holds".
	for _, doc := range strings.Split(string(text), "=== ")[1:] {
		_, doc, _ = strings.Cut(doc, "\n")
		seeds = append(seeds, []byte(doc))
	}
	return seeds
}
