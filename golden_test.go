package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// engineDigests is one kernel's entry in testdata/engine_golden.json: what
// the production chain — event engine, cursor replay, cursor execution of
// the generated program — produced when the file was last written.
type engineDigests struct {
	// AppClocks digests PerRankUS of the traced application run.
	AppClocks string `json:"app_clocks"`
	// Trace digests the encoded trace, call sites renumbered.
	Trace string `json:"trace"`
	// ReplayClocks digests PerRankUS of replay.Replay on the decoded trace.
	ReplayClocks string `json:"replay_clocks"`
	// GeneratedClocks digests PerTaskUS of conceptual.Execute on the program
	// core.Generate builds from the decoded trace.
	GeneratedClocks string `json:"generated_clocks"`
	// SourceConceptual, SourceC and SourceGo digest the generated benchmark's
	// text in the three executable target languages.
	SourceConceptual string `json:"source_conceptual"`
	SourceC          string `json:"source_c"`
	SourceGo         string `json:"source_go"`
}

// textDigest is the sha256 of a generated source text.
func textDigest(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// clockDigest is the sha256 of the clocks' float64 bit patterns, so two
// clock vectors digest alike only if they are bit-identical.
func clockDigest(us []float64) string {
	buf := make([]byte, 8*len(us))
	for i, v := range us {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

var siteField = regexp.MustCompile(`site=\d+`)

// traceDigest is the sha256 of an encoded trace with every site= value
// replaced by the order of its first appearance: call-site hashes cover
// program counters and file paths, so they move with any recompile or
// checkout, while which events share a site does not.
func traceDigest(encoded []byte) string {
	order := map[string]int{}
	renumbered := siteField.ReplaceAllFunc(encoded, func(m []byte) []byte {
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

// TestEngineGoldenDigests compares the production chain against checked-in
// digests for every kernel at 16 ranks (or the largest valid count below),
// plus bt at 64 and sweep3d at 36 for the sources' sake (deeper loop nests,
// longer enumerations), class S, on the BlueGene/L model. The differential suites compare two
// implementations and cannot see a change that moves both; this one needs no
// second implementation and fails on a one-ulp clock change in any of them.
// LU is included: the event engine resolves wildcards deterministically.
// After a deliberate cost-model, trace-format or generator change:
// `go test -run EngineGoldenDigests -update .` and review the diff.
func TestEngineGoldenDigests(t *testing.T) {
	model := netmodel.BlueGeneL()
	got := map[string]engineDigests{}
	type kernel struct {
		name string
		n    int
	}
	var kernels []kernel
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		kernels = append(kernels, kernel{name, n})
	}
	kernels = append(kernels, kernel{"bt", 64}, kernel{"sweep3d", 36})
	for _, k := range kernels {
		name, n := k.name, k.n
		res, traceBytes, _ := runKernel(t, name, n)
		// Replay and generation each get their own decode, as the CLI chain
		// (tracegen | benchgen) would hand them.
		decode := func() *trace.Trace {
			tr, err := trace.Decode(bytes.NewReader(traceBytes))
			if err != nil {
				t.Fatalf("%s: decode trace: %v", name, err)
			}
			return tr
		}
		rep, err := replay.Replay(decode(), model)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		prog, err := core.Generate(decode(), nil)
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		exe, err := conceptual.Execute(prog, n, model)
		if err != nil {
			t.Fatalf("%s: execute generated program: %v", name, err)
		}
		gosrc, err := core.GenerateGo(decode(), nil)
		if err != nil {
			t.Fatalf("%s: generate Go: %v", name, err)
		}
		d := engineDigests{
			AppClocks:        clockDigest(res.PerRankUS),
			Trace:            traceDigest(traceBytes),
			ReplayClocks:     clockDigest(rep.PerRankUS),
			GeneratedClocks:  clockDigest(exe.PerTaskUS),
			SourceConceptual: textDigest(conceptual.Print(prog)),
			SourceC:          textDigest(conceptual.GenerateC(prog)),
			SourceGo:         textDigest(gosrc),
		}
		got[fmt.Sprintf("%s-%d", name, n)] = d

		// The digest must be sensitive to the smallest possible clock change.
		last := len(res.PerRankUS) - 1
		res.PerRankUS[last] = math.Nextafter(res.PerRankUS[last], math.Inf(1))
		if clockDigest(res.PerRankUS) == d.AppClocks {
			t.Errorf("%s: clock digest unchanged by a one-ulp clock change", name)
		}
	}

	golden := filepath.Join("testdata", "engine_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	var want map[string]engineDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry (run with -update after adding a kernel)", key)
			continue
		}
		for _, f := range []struct{ what, got, want string }{
			{"traced app run clocks", g.AppClocks, w.AppClocks},
			{"encoded trace", g.Trace, w.Trace},
			{"cursor replay clocks", g.ReplayClocks, w.ReplayClocks},
			{"generated program clocks", g.GeneratedClocks, w.GeneratedClocks},
			{"coNCePTuaL source", g.SourceConceptual, w.SourceConceptual},
			{"C source", g.SourceC, w.SourceC},
			{"Go source", g.SourceGo, w.SourceGo},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s digest %s, golden %s", key, f.what, f.got, f.want)
			}
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry for a kernel that no longer runs", key)
		}
	}
}
