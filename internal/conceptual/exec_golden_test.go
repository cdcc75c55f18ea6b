package conceptual

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/golden"
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

// execDigest digests one traced execution.
func execDigest(res *RunResult, encoded []byte) execDigests {
	return execDigests{Clocks: golden.ClockDigest(res.PerTaskUS), Logs: res.Logs, Trace: golden.TraceDigest(encoded)}
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
// `go test -run 'CursorMatchesReferences|CompiledMatchesTreeWalk' ./internal/conceptual/ -update -v`
// and review the rows.
func TestCursorMatchesReferences(t *testing.T) {
	want := golden.LoadMap(t, filepath.Join("testdata", "exec_golden.json"))
	for name, p := range differentialPrograms() {
		for _, n := range []int{7, 8} {
			key := fmt.Sprintf("%s/n%d", name, n)
			t.Run(key, func(t *testing.T) {
				want.Check(t, key, execDigest(execTraced(t, p, n)))
			})
		}
	}
}

// TestCompiledMatchesTreeWalk runs the same programs untraced: the lowered
// cursor program must issue the calls the tree walk issued with no tracer
// attached too, so its per-task clocks and logs match the golden exactly.
func TestCompiledMatchesTreeWalk(t *testing.T) {
	var want map[string]execDigests
	golden.Read(t, filepath.Join("testdata", "exec_golden.json"), &want)
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
