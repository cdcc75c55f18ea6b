package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/netmodel"
)

// TestGeneratedGoRunsLikeExecute builds the Go that conceptual.GenerateGo
// prints for every golden kernel of 16 ranks or fewer, with one go build, and
// runs each binary: every rank's final clock and LOG value must equal
// conceptual.Execute's of the same program bit for bit. The generated programs
// import repro/internal/mpi, so their sources live in a directory inside the
// module (testdata/gorun-*, removed afterwards).
func TestGeneratedGoRunsLikeExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs generated programs")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	src, err := os.MkdirTemp("testdata", "gorun-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(src) })
	bin := t.TempDir()

	model := netmodel.BlueGeneL()
	want := map[string][]string{}
	pkgs := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, k := range goldenKernels() {
		if k.n > 16 {
			continue
		}
		tr, err := traceBody(k.n, model, k.body)
		if err != nil {
			t.Fatalf("%s: %v", k.key(), err)
		}
		prog, err := core.Generate(tr, nil)
		if err != nil {
			t.Fatalf("%s: generate: %v", k.key(), err)
		}
		res, err := conceptual.Execute(prog, k.n, model)
		if err != nil {
			t.Fatalf("%s: execute: %v", k.key(), err)
		}
		var lines []string
		for rank, us := range res.PerTaskUS {
			lines = append(lines, fmt.Sprint("clock ", rank, " ", strconv.FormatFloat(us, 'g', -1, 64)))
		}
		for _, l := range res.Logs {
			lines = append(lines, fmt.Sprint("log ", l.Task, " ", strconv.Quote(l.Label), " ", strconv.FormatFloat(l.Value, 'g', -1, 64)))
		}
		want[k.key()] = lines
		dir := filepath.Join(src, k.key())
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(conceptual.GenerateGo(prog)), 0o644); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, "./"+filepath.ToSlash(dir))
	}
	if len(want) != 13 {
		t.Fatalf("%d golden kernels of 16 ranks or fewer, want 13", len(want))
	}
	if out, err := exec.Command(goTool, pkgs...).CombinedOutput(); err != nil {
		t.Fatalf("generated programs do not build: %v\n%s", err, out)
	}

	for key, lines := range want {
		out, err := exec.Command(filepath.Join(bin, key)).Output()
		if err != nil {
			t.Errorf("%s: run: %v", key, err)
			continue
		}
		got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		// Execute orders LOG values by label, then task; the program prints
		// them by task.
		slices.Sort(got)
		slices.Sort(lines)
		if !slices.Equal(got, lines) {
			t.Errorf("%s: the generated Go program printed\n%s\nconceptual.Execute ran\n%s", key, strings.Join(got, "\n"), strings.Join(lines, "\n"))
		}
	}
}
