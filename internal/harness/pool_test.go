package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/netmodel"
)

// TestPoolWorkerCountInvariance pins the harness-pool contract: every study
// result is identical whether configurations run sequentially or fanned
// across workers.
func TestPoolWorkerCountInvariance(t *testing.T) {
	defer SetParallelism(0)
	counts := map[string][]int{"cg": {8, 16}, "ring": {8, 16}, "is": {8}}

	SetParallelism(1)
	seq, err := Fig6(apps.ClassS, counts, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("sequential Fig6: %v", err)
	}
	SetParallelism(4)
	par, err := Fig6(apps.ClassS, counts, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("parallel Fig6: %v", err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("point %d differs: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	errA := errors.New("a")
	errB := errors.New("b")
	for trial := 0; trial < 20; trial++ {
		err := forEachNamed(16, nil, func(i int) error {
			switch i {
			case 3:
				return errB
			case 1:
				return errA
			}
			return nil
		})
		if err != errA {
			t.Fatalf("trial %d: got %v, want the lowest-index error %v", trial, err, errA)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(5)
	var hits [64]atomic.Int32
	if err := forEachNamed(len(hits), nil, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// TestForEachNamedCapturesPanic pins the pool's crash containment: a panic
// inside one configuration surfaces as that configuration's error — naming
// it — while every other configuration still runs to completion, on both the
// parallel and the serial path.
func TestForEachNamedCapturesPanic(t *testing.T) {
	defer SetParallelism(0)
	name := func(i int) string { return fmt.Sprintf("cfg %d", i) }
	for _, workers := range []int{1, 8} {
		SetParallelism(workers)
		var hits [16]atomic.Int32
		err := forEachNamed(len(hits), name, func(i int) error {
			hits[i].Add(1)
			if i == 5 {
				panic("simulated worker crash")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic swallowed", workers)
		}
		for _, want := range []string{"cfg 5", "panicked", "simulated worker crash"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error missing %q: %v", workers, want, err)
			}
		}
		if workers > 1 {
			// The parallel path runs everything; only then is the
			// lowest-index failure selected.
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
				}
			}
		}
	}
}

// TestForEachNamedPanicBeatsLaterError checks the deterministic-reporting
// rule holds across failure kinds: a panic at a lower index wins over a
// plain error at a higher one.
func TestForEachNamedPanicBeatsLaterError(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	err := forEachNamed(8, nil, func(i int) error {
		if i == 2 {
			panic("early crash")
		}
		if i == 6 {
			return errors.New("late failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "#2 panicked") {
		t.Fatalf("got %v, want the index-2 panic", err)
	}
}

// TestRunTimeoutForwarded checks that SetRunTimeout reaches the simulated
// runtime: a deliberately deadlocking receive must be reported within the
// configured deadline instead of hanging for the runtime's 60-second default.
func TestRunTimeoutForwarded(t *testing.T) {
	defer SetRunTimeout(0)
	SetRunTimeout(100 * time.Millisecond)
	p := &conceptual.Program{Stmts: []conceptual.Stmt{
		// Task 0 waits for a message task 1 never sends.
		&conceptual.RecvStmt{Who: conceptual.OneTask(0), Size: 8, Source: conceptual.AbsRank(1)},
	}}
	start := time.Now()
	_, err := RunProgram(p, 2, netmodel.Ideal())
	if err == nil {
		t.Fatal("deadlocking program completed")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlock took %v to report with a 100ms run timeout", elapsed)
	}
}
