package conceptual_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netmodel"
)

// TestParseAllocatesByProgramNotBySource guards the streaming scanner: Parse
// allocates the AST and nothing proportional to the token count. A generated
// sweep3d program at 16 ranks costs 2.2 bytes per source byte; with the token
// slice the same program cost 70.
func TestParseAllocatesByProgramNotBySource(t *testing.T) {
	run, err := harness.TraceApp("sweep3d", apps.NewConfig(16, apps.ClassS), netmodel.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Generate(run.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := conceptual.Print(prog)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parsed, err := conceptual.Parse(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.StmtCount() != prog.StmtCount() {
		t.Fatalf("parsed %d statements, generated %d", parsed.StmtCount(), prog.StmtCount())
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src))
	t.Logf("%d source bytes, %d statements, %.2f bytes allocated per source byte", len(src), prog.StmtCount(), perByte)
	if perByte > 8 {
		t.Errorf("Parse allocated %.1f bytes per source byte, want at most 8", perByte)
	}
}
