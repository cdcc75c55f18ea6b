package mpi

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// cachedRanks reports the total ranks the pool currently holds.
func (g *Engine) cachedRanks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cached
}

// TestEngineReuseTelemetry pins the pool's observable accounting: with
// telemetry on, a three-run sequence at one world size is exactly one miss
// (the cold build) plus two hits (warm resets), and every acquisition lands a
// sample in the setup-time histogram. The on/off bit-identity of these
// counters rides the package-wide guarantee (no telemetry feeds back into
// virtual time) pinned by TestTelemetryOnOffBitIdentical at the root.
func TestEngineReuseTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	eng := NewEngine()
	defer eng.Close()

	hits0 := ctrWorldReuseHits.Value()
	misses0 := ctrWorldReuseMisses.Value()
	setup0 := histRunSetupUS.Stats().Count
	wait0 := histEnginePoolWaitUS.Stats().Count
	done0 := ctrWorldsCompleted.Value()

	for i := 0; i < 3; i++ {
		if _, err := Run(16, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
			t.Fatalf("pooled run %d: %v", i, err)
		}
	}

	if d := ctrWorldReuseMisses.Value() - misses0; d != 1 {
		t.Errorf("world_reuse_misses grew by %d, want 1 (single cold build)", d)
	}
	if d := ctrWorldReuseHits.Value() - hits0; d != 2 {
		t.Errorf("world_reuse_hits grew by %d, want 2 (two warm resets)", d)
	}
	if d := histRunSetupUS.Stats().Count - setup0; d != 3 {
		t.Errorf("run_setup_us observed %d samples, want 3 (one per acquisition)", d)
	}
	if d := histEnginePoolWaitUS.Stats().Count - wait0; d != 3 {
		t.Errorf("engine_pool_wait_us observed %d samples, want 3 (one per pooled acquisition)", d)
	}
	if d := ctrWorldsCompleted.Value() - done0; d != 3 {
		t.Errorf("worlds_completed grew by %d, want 3 (one per successful run)", d)
	}
}

// TestEngineSizeClassesAndEviction pins the pooling policy: worlds are keyed
// by size (a run at a new size never reuses a differently-sized world), and
// the rank budget evicts the largest cached class first.
func TestEngineSizeClassesAndEviction(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	eng := NewEngine()
	defer eng.Close()
	eng.maxRanks = 24 // forces eviction with toy worlds

	misses0 := ctrWorldReuseMisses.Value()
	for _, n := range []int{16, 8, 16} {
		if _, err := Run(n, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
			t.Fatalf("run at %d ranks: %v", n, err)
		}
	}
	// 16 cold, 8 cold, then the 16-rank release (16+8=24 fits) leaves both
	// cached and the third run is a 16-rank hit.
	if d := ctrWorldReuseMisses.Value() - misses0; d != 2 {
		t.Errorf("misses grew by %d, want 2 (one per size class)", d)
	}
	// A 12-rank world (cold) overflows the budget on release; the 16-rank
	// class is evicted first, so a following 8-rank run still hits.
	hits0 := ctrWorldReuseHits.Value()
	if _, err := Run(12, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 12 ranks: %v", err)
	}
	if _, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 8 ranks: %v", err)
	}
	if d := ctrWorldReuseHits.Value() - hits0; d != 1 {
		t.Errorf("hits grew by %d, want 1 (8-rank world survived the eviction)", d)
	}
	if _, ok := eng.cachedWorlds()[16]; ok {
		t.Error("16-rank class still cached; eviction should drop the largest class first")
	}
}

// TestEngineCloseRemainsUsable pins that Close is a drain, not a kill: runs
// issued after Close build cold, complete correctly, and leave nothing cached
// or running.
func TestEngineCloseRemainsUsable(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	if _, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	eng.Close()
	res, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng))
	if err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	if len(res.PerRankUS) != 8 {
		t.Fatalf("result has %d ranks, want 8", len(res.PerRankUS))
	}
	waitForGoroutines(t, base)
	if total, classes := eng.cachedRanks(), eng.cachedWorlds(); total != 0 || len(classes) != 0 {
		t.Errorf("engine cached %d ranks across %d classes after Close", total, len(classes))
	}
}

// TestEngineRetiresParkedRanks pins the lifetime of a pooled world's rank
// coroutines, which park between runs: the world the rank budget evicts gives
// its ranks back at once, the rest go with Close.
func TestEngineRetiresParkedRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	eng.maxRanks = 24

	if _, err := Run(16, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 16 ranks: %v", err)
	}
	if got := runtime.NumGoroutine(); got < base+16 {
		t.Fatalf("%d goroutines with a 16-rank world cached, want its ranks parked (base %d)", got, base)
	}
	// Releasing a 12-rank world overflows the budget and evicts the larger one.
	if _, err := Run(12, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 12 ranks: %v", err)
	}
	if classes := eng.cachedWorlds(); classes[16] != 0 || classes[12] != 1 {
		t.Fatalf("cached classes %v, want only the 12-rank world", classes)
	}
	waitForGoroutines(t, base+12)

	eng.Close()
	waitForGoroutines(t, base)
}

// TestEngineConcurrentBudgetAndClose races the Engine's one lock from many
// goroutines: mixed world sizes against a rank budget small enough that
// most releases evict, first to quiescence, then again with Close landing
// midway. Every run must return the serial result; the cached ranks never
// exceed the budget; nothing is cached after Close, and every evicted or
// closed-out world gives its parked rank coroutines back.
func TestEngineConcurrentBudgetAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	sizes := []int{4, 8, 12, 16}
	want := map[int][]float64{}
	for _, n := range sizes {
		res, err := Run(n, netmodel.BlueGeneL(), cleanBody)
		if err != nil {
			t.Fatalf("serial run at %d ranks: %v", n, err)
		}
		want[n] = res.PerRankUS
	}

	eng := NewEngine()
	eng.maxRanks = 24
	// fanOut runs workers*perWorker pooled worlds and calls midway (on one of
	// the workers) when half of them have returned.
	const workers, perWorker = 4, 24
	fanOut := func(midway func()) {
		var returned atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					n := sizes[(g+i)%len(sizes)]
					res, err := Run(n, netmodel.BlueGeneL(), cleanBody, WithEngine(eng))
					if err != nil {
						t.Errorf("pooled run at %d ranks: %v", n, err)
					} else if !slices.Equal(res.PerRankUS, want[n]) {
						t.Errorf("pooled run at %d ranks: clocks %v, serial %v", n, res.PerRankUS, want[n])
					}
					if c := eng.cachedRanks(); c > eng.maxRanks {
						t.Errorf("%d ranks cached, budget %d", c, eng.maxRanks)
					}
					if returned.Add(1) == workers*perWorker/2 {
						midway()
					}
				}
			}()
		}
		wg.Wait()
	}

	fanOut(func() {})
	// The last release always fits (it evicts until it does), so a quiesced
	// open pool holds at least that world.
	if c := eng.cachedRanks(); c <= 0 || c > eng.maxRanks {
		t.Errorf("%d ranks cached after the open phase, want 1..%d", c, eng.maxRanks)
	}

	fanOut(eng.Close)
	if c, classes := eng.cachedRanks(), eng.cachedWorlds(); c != 0 || len(classes) != 0 {
		t.Errorf("engine cached %d ranks in classes %v after Close", c, classes)
	}
	waitForGoroutines(t, base)
}
