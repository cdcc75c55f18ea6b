package conceptual

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/netmodel"
)

// execDigests is one program's entry in testdata/exec_golden.json: what
// Execute produced, traced, on the BlueGene/L model when the file was last
// written.
type execDigests struct {
	// Clocks digests the float64 bit patterns of PerTaskUS.
	Clocks string `json:"clocks"`
	// Logs are the LOG statements' entries; encoding/json writes a float64
	// that decodes to the same bits.
	Logs []LogEntry `json:"logs"`
	// Trace digests the encoded trace, call sites renumbered by first
	// appearance.
	Trace string `json:"trace"`
}

var siteField = regexp.MustCompile(`site=\d+`)

// execDigest digests one traced execution.
func execDigest(res *RunResult, encoded []byte) execDigests {
	buf := make([]byte, 8*len(res.PerTaskUS))
	for i, v := range res.PerTaskUS {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	clocks := sha256.Sum256(buf)
	order := map[string]int{}
	renumbered := siteField.ReplaceAllFunc(encoded, func(m []byte) []byte {
		i, ok := order[string(m)]
		if !ok {
			i = len(order)
			order[string(m)] = i
		}
		return strconv.AppendInt([]byte("site="), int64(i), 10)
	})
	tr := sha256.Sum256(renumbered)
	return execDigests{Clocks: hex.EncodeToString(clocks[:]), Logs: res.Logs, Trace: hex.EncodeToString(tr[:])}
}

// loadExecGolden decodes testdata/exec_golden.json.
func loadExecGolden(t *testing.T, golden string) map[string]execDigests {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	var want map[string]execDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	return want
}

// TestCursorMatchesReferences holds Execute's stackless cursors to
// checked-in digests of every program of differentialPrograms at 7 and 8
// tasks: per-task clocks bit for bit, the logs, and the encoded trace. It is
// the golden that covers LOG and RESET and sub-group REDUCE and MULTICAST,
// which no generated benchmark emits. The file was recorded while a
// tree-walking interpreter, on coroutine ranks and on goroutine-per-rank
// ranks, still ran beside the cursors and agreed with them; byte-identical
// traces depended on the shared deterministic call-site stamping. After a
// deliberate cost-model, trace-format or lowering change:
// `go test -run 'CursorMatchesReferences|CompiledMatchesTreeWalk' ./internal/conceptual/ -update`
// and review the diff.
func TestCursorMatchesReferences(t *testing.T) {
	golden := filepath.Join("testdata", "exec_golden.json")
	var want map[string]execDigests
	if !*updateGolden {
		want = loadExecGolden(t, golden)
	}
	got := map[string]execDigests{}
	for name, p := range differentialPrograms() {
		for _, n := range []int{7, 8} {
			key := fmt.Sprintf("%s/n%d", name, n)
			t.Run(key, func(t *testing.T) {
				g := execDigest(execTraced(t, p, n))
				got[key] = g
				if *updateGolden {
					return
				}
				w, ok := want[key]
				if !ok {
					t.Fatal("no golden entry (run with -update after adding a program)")
				}
				if g.Clocks != w.Clocks {
					t.Errorf("clock digest %s, golden %s", g.Clocks, w.Clocks)
				}
				if g.Trace != w.Trace {
					t.Errorf("encoded trace digest %s, golden %s", g.Trace, w.Trace)
				}
				if !reflect.DeepEqual(g.Logs, w.Logs) {
					t.Errorf("logs %+v, golden %+v", g.Logs, w.Logs)
				}
			})
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry for a program that no longer runs", key)
		}
	}
}

// TestCompiledMatchesTreeWalk runs the same programs untraced: the lowered
// cursor program must issue the calls the tree walk issued with no tracer
// attached too, so its per-task clocks and logs match the golden exactly.
func TestCompiledMatchesTreeWalk(t *testing.T) {
	want := loadExecGolden(t, filepath.Join("testdata", "exec_golden.json"))
	for name, p := range differentialPrograms() {
		for _, n := range []int{7, 8} {
			key := fmt.Sprintf("%s/n%d", name, n)
			t.Run(key, func(t *testing.T) {
				res, err := Execute(p, n, netmodel.BlueGeneL())
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				g, w := execDigest(res, nil), want[key]
				if g.Clocks != w.Clocks {
					t.Errorf("clock digest %s, golden %s", g.Clocks, w.Clocks)
				}
				if !reflect.DeepEqual(g.Logs, w.Logs) {
					t.Errorf("logs %+v, golden %+v", g.Logs, w.Logs)
				}
			})
		}
	}
}
