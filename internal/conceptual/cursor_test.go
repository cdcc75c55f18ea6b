package conceptual

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// execTraced executes p with a trace collector attached and returns the
// result plus the encoded trace bytes, so a run can be checked at the clock,
// log and trace level at once.
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

// TestExecuteGoroutineFree pins the tentpole resource claim: under the event
// engine, Execute drives every task as a stackless cursor, so a 128-task
// program adds only O(1) goroutines (the run's watchdog), not one per task.
// A sampler thread watches the process-wide goroutine count for the whole
// run; a goroutine per task would hold ~128 extra goroutines alive throughout
// and trip the bound reliably.
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
