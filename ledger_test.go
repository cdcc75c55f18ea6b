package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestLedgerModule builds and tests benchmark/, the module behind
// BENCHMARK.json. It is a module of its own, so `go test ./...` at the root
// never compiles it, and a PR that renames something it uses would pass
// tier-1 and fail the benchmark step. Its TestSmoke runs all seven workloads
// on their smallest inputs. The environment is benchmark/run.sh's: offline,
// the local toolchain, the root module through the replace directive.
func TestLedgerModule(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "test", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test ./... in benchmark/: %v\n%s", err, out)
	}
}
