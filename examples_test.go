package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun smoke-tests every runnable example so the documented
// walkthroughs cannot rot. Each example must exit cleanly and print its
// headline result.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example smoke tests in -short mode")
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"./examples/quickstart", []string{"communication profiles match", "(identical: true)"}},
		{"./examples/deadlock", []string{"POTENTIAL DEADLOCK detected"}},
		{"./examples/procurement", []string{"Vendor-side evaluation"}},
		{"./examples/extrapolate", []string{"event-for-event identical"}},
		{"./examples/whatif", []string{"overlapping computation with communication"}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.dir, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Fatalf("%s output missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}
