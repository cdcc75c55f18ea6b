package mpi

import (
	"os/exec"
	"strings"
	"testing"
)

// TestMatchingHelpersInline pins the compiler's inlining of the engine's
// matching predicates. firstMatch sits at cost 77 of the inliner's budget of
// 80: one more condition in it, or in acceptsTag, which it inlines, stops it
// inlining at its call sites in deposit, takeUnexpected and rebuildAnyHeap,
// and every match pays a call, with no other test noticing.
func TestMatchingHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with the compiler's inlining report")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, want := range []string{"can inline (*msgQueue).firstMatch", "can inline (*postedRecv).accepts"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go build -gcflags=-m=2 ./internal/mpi/ does not report %q", want)
		}
	}
}
