package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/harness"
	"repro/internal/netmodel"
)

// TestCLIPipeline exercises the three tools end to end exactly as the
// README does: trace an app, generate the benchmark, run it.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke test in -short mode")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "ring.trace")
	srcPath := filepath.Join(dir, "ring.ncptl")

	runTool := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	runTool("./cmd/tracegen", "-app", "ring", "-n", "8", "-class", "S", "-o", tracePath)
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatalf("trace not written: %v", err)
	}

	runTool("./cmd/benchgen", "-i", tracePath, "-o", srcPath)
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "FOR 100 REPETITIONS") {
		t.Fatalf("generated source unexpected:\n%s", src)
	}

	out := runTool("./cmd/ncrun", "-model", "bluegene", srcPath)
	if !strings.Contains(out, "total virtual time:") {
		t.Fatalf("ncrun output unexpected:\n%s", out)
	}

	// -scale-compute is harness.ScaleCompute, not a copy of it: the scaled
	// run reports the virtual time the in-process what-if run reports, and
	// less than the unscaled one.
	prog, err := conceptual.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := harness.RunProgram(harness.ScaleCompute(prog, 0.5), prog.NumTasks, netmodel.BlueGeneL())
	if err != nil {
		t.Fatal(err)
	}
	virtualTime := func(out string) (secs float64) {
		t.Helper()
		_, rest, _ := strings.Cut(out, "total virtual time: ")
		if _, err := fmt.Sscanf(rest, "%f s\n", &secs); err != nil {
			t.Fatalf("ncrun output unexpected (%v):\n%s", err, out)
		}
		return secs
	}
	sout := runTool("./cmd/ncrun", "-model", "bluegene", "-scale-compute", "0.5", srcPath)
	if want := fmt.Sprintf("total virtual time: %.3f s\n", scaled.ElapsedUS/1e6); !strings.Contains(sout, want) {
		t.Fatalf("ncrun -scale-compute 0.5 disagrees with harness.ScaleCompute, want %q:\n%s", want, sout)
	}
	if virtualTime(sout) >= virtualTime(out) {
		t.Fatalf("scaled run not faster than unscaled:\n%s\n%s", sout, out)
	}

	// The C backend emits compilable-looking source.
	cout := runTool("./cmd/benchgen", "-i", tracePath, "-lang", "c")
	if !strings.Contains(cout, "MPI_Init(&argc, &argv);") {
		t.Fatalf("C output unexpected:\n%s", cout)
	}

	// Extrapolation through the CLI.
	trace16 := filepath.Join(dir, "ring16.trace")
	runTool("./cmd/tracegen", "-app", "ring", "-n", "16", "-class", "S", "-o", trace16)
	xout := runTool("./cmd/benchgen", "-i", tracePath, "-with", trace16, "-extrapolate", "64")
	if !strings.Contains(xout, "REQUIRE num_tasks = 64") {
		t.Fatalf("extrapolated generation unexpected:\n%s", xout)
	}

	// The telemetry timeline export: tracing with -timeline must write a
	// valid Chrome trace-event document with one span track per rank.
	timelinePath := filepath.Join(dir, "timeline.json")
	runTool("./cmd/tracegen", "-app", "ring", "-n", "8", "-class", "S",
		"-o", filepath.Join(dir, "ring_tl.trace"), "-timeline", timelinePath)
	tlData, err := os.ReadFile(timelinePath)
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var tlDoc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tlData, &tlDoc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	tlRanks := map[int]bool{}
	for _, ev := range tlDoc.TraceEvents {
		if ev.Ph == "X" {
			tlRanks[ev.TID] = true
		}
	}
	if len(tlRanks) != 8 {
		t.Fatalf("timeline covers %d ranks, want 8", len(tlRanks))
	}
}
