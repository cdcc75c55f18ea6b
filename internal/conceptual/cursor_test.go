package conceptual

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// execTraced executes p with a trace collector attached and returns the
// result plus the encoded trace bytes, so representations can be compared at
// the clock, log and trace level at once.
func execTraced(t *testing.T, p *Program, n int, opts ...RunOption) (*RunResult, []byte) {
	t.Helper()
	col := trace.NewCollector(n)
	opts = append(opts, WithMPIOptions(mpi.WithTracer(col.TracerFor)))
	res, err := Execute(p, n, netmodel.BlueGeneL(), opts...)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("encode trace: %v", err)
	}
	return res, buf.Bytes()
}

// TestCursorMatchesReferences is the cross-representation differential for
// coNCePTuaL execution: the stackless cursors must produce bit-identical
// per-task clocks, identical logs and a byte-identical encoded trace against
// the tree-walk reference on every differential kernel. Byte-identical traces
// depend on the shared deterministic call-site stamping — a representation
// that walked the stack instead would diverge here.
func TestCursorMatchesReferences(t *testing.T) {
	for name, p := range differentialPrograms() {
		for _, n := range []int{7, 8} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				base, baseTrace := execTraced(t, p, n) // stackless cursors
				res, refTrace := execTraced(t, p, n, WithTreeWalk())
				if base.ElapsedUS != res.ElapsedUS {
					t.Errorf("ElapsedUS: cursor %v, treewalk %v", base.ElapsedUS, res.ElapsedUS)
				}
				for i := range res.PerTaskUS {
					if base.PerTaskUS[i] != res.PerTaskUS[i] {
						t.Errorf("task %d clock: cursor %v, treewalk %v",
							i, base.PerTaskUS[i], res.PerTaskUS[i])
					}
				}
				if len(base.Logs) != len(res.Logs) {
					t.Fatalf("logs: cursor %d entries, treewalk %d", len(base.Logs), len(res.Logs))
				}
				for i := range res.Logs {
					if base.Logs[i] != res.Logs[i] {
						t.Errorf("log %d: cursor %+v, treewalk %+v", i, base.Logs[i], res.Logs[i])
					}
				}
				if !bytes.Equal(baseTrace, refTrace) {
					t.Error("encoded trace differs between cursor and treewalk")
				}
			})
		}
	}
}

// TestGoroutineRuntimeRequiresTreeWalk pins that there is no silent
// fallback: cursors need the event engine, so asking Execute for the
// goroutine runtime without WithTreeWalk is a named error, and with it the
// tree walk runs there and matches the cursors bit for bit.
func TestGoroutineRuntimeRequiresTreeWalk(t *testing.T) {
	p := differentialPrograms()["ring"]
	n := 8
	goroutineRT := WithMPIOptions(mpi.WithGoroutineRuntime())
	if _, err := Execute(p, n, netmodel.BlueGeneL(), goroutineRT); err == nil ||
		!strings.Contains(err.Error(), "require the event engine") {
		t.Fatalf("cursor Execute on the goroutine runtime: %v, want the event-engine error", err)
	}
	base, err := Execute(p, n, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("cursor Execute: %v", err)
	}
	gr, err := Execute(p, n, netmodel.BlueGeneL(), WithTreeWalk(), goroutineRT)
	if err != nil {
		t.Fatalf("tree walk on the goroutine runtime: %v", err)
	}
	for i := range base.PerTaskUS {
		if base.PerTaskUS[i] != gr.PerTaskUS[i] {
			t.Errorf("task %d clock: cursor %v, goroutine runtime %v",
				i, base.PerTaskUS[i], gr.PerTaskUS[i])
		}
	}
}

// TestExecuteGoroutineFree pins the tentpole resource claim: under the event
// engine, Execute drives every task as a stackless cursor, so a 128-task
// program adds only O(1) goroutines (the run's watchdog), not one per task.
// A sampler thread watches the process-wide goroutine count for the whole
// run; the tree walk would hold ~128 extra goroutines alive throughout and
// trips the bound reliably.
func TestExecuteGoroutineFree(t *testing.T) {
	const n = 128
	p := &Program{Stmts: []Stmt{
		&LoopStmt{Count: 50, Body: []Stmt{
			&SendStmt{Who: AllTasks, Async: true, Size: 1024, Dest: RelRank(1)},
			&RecvStmt{Who: AllTasks, Async: true, Size: 1024, Source: RelRank(-1)},
			&AwaitStmt{Who: AllTasks},
			&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 64},
		}},
	}}
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	var maxG atomic.Int64
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
				maxG.Store(g)
			}
			runtime.Gosched()
		}
	}()
	if _, err := Execute(p, n, netmodel.BlueGeneL()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	close(stop)
	<-sampled
	// Allow the watchdog, the sampler itself and unrelated runtime
	// goroutines; n/4 would already mean per-task goroutines came back.
	if max := maxG.Load(); max > int64(base+16) {
		t.Errorf("goroutine high-water mark %d (baseline %d): cursor execution must not spawn per-task goroutines", max, base)
	}
}
