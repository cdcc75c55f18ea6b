package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestGeneratedCCompiles holds the C printer to the C language: the C of
// TestRenderTable's programs (every C section of render.golden, which that
// test holds to GenerateC) and of every golden kernel of 16 ranks or fewer
// must pass `cc -fsyntax-only -Wall -Werror` against testdata/cstub/mpi.h, a
// stub that declares exactly the MPI calls and constants the printer emits.
func TestGeneratedCCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a C compiler")
	}
	cc, err := exec.LookPath("cc")
	if err != nil {
		if cc, err = exec.LookPath("gcc"); err != nil {
			t.Skip("no cc or gcc on PATH")
		}
	}
	dir := t.TempDir()
	var files []string
	golden, err := os.ReadFile(filepath.Join("internal", "conceptual", "testdata", "render.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Each section opens with a "=== <dialect>[, <variant>]" line.
	for _, section := range strings.Split("\n"+string(golden), "\n=== ")[1:] {
		name, src, _ := strings.Cut(section, "\n")
		if dialect, _, _ := strings.Cut(name, ","); dialect != "c" {
			continue
		}
		file := filepath.Join(dir, fmt.Sprintf("render_table_%d.c", len(files)))
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	if len(files) < 2 {
		t.Fatalf("render.golden has %d C sections, want both the headed and the headerless program", len(files))
	}
	for _, k := range goldenKernels() {
		if k.n > 16 {
			continue
		}
		_, traceBytes, _ := runBody(t, k.key(), k.n, k.body)
		tr, err := trace.Decode(bytes.NewReader(traceBytes))
		if err != nil {
			t.Fatalf("%s: decode trace: %v", k.key(), err)
		}
		prog, err := core.Generate(tr, nil)
		if err != nil {
			t.Fatalf("%s: generate: %v", k.key(), err)
		}
		file := filepath.Join(dir, k.key()+".c")
		if err := os.WriteFile(file, []byte(conceptual.GenerateC(prog)), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, file)
	}
	stub, err := filepath.Abs(filepath.Join("testdata", "cstub"))
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-fsyntax-only", "-Wall", "-Werror", "-I", stub}, files...)
	if out, err := exec.Command(cc, args...).CombinedOutput(); err != nil {
		t.Errorf("%s %s: %v\n%s", cc, strings.Join(args, " "), err, out)
	}
}
