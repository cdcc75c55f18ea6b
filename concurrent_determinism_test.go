package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/trace"
)

// runConcurrently runs fn(i) for every i in [0, n) on `workers` goroutines
// pulling an index cursor — the shape harness.forEachNamed fans experiment
// configurations out with — and returns when all have finished.
func runConcurrently(workers, n int, fn func(i int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runKernelErr is runKernel without the testing.T plumbing, safe to call
// off the test goroutine (where t.Fatalf must not run).
func runKernelErr(name string, n int, opts ...mpi.Option) (*mpi.Result, []byte, error) {
	app := apps.ByName(name)
	col := trace.NewCollector(n)
	opts = append(opts, mpi.WithTracer(col.TracerFor))
	res, err := mpi.Run(n, netmodel.BlueGeneL(), app.Body(apps.NewConfig(n, apps.ClassS)), opts...)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// TestConcurrentWorldsDeterminism pins the claim concurrency across worlds
// rests on: driving many pooled worlds side by side changes nothing but
// wall-clock time. Every kernel runs serially once for a baseline, then three
// concurrent repetitions through a shared Engine on GOMAXPROCS goroutines at
// GOMAXPROCS 1, 4 and 8 — mixing world reuse and cross-world scheduling
// races — and every repetition must reproduce the baseline's per-rank clocks
// and encoded trace byte for byte. Worlds are single-threaded internally, so
// the only way this fails is shared state leaking between worlds; -race
// (make check runs this under it at -cpu 1,2) catches the data-race form of
// the same bug, and is the one place pooled worlds, mailboxes and collectors
// migrate between real threads under the detector.
func TestConcurrentWorldsDeterminism(t *testing.T) {
	type kern struct {
		name string
		n    int
	}
	var kerns []kern
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		kerns = append(kerns, kern{name: name, n: n})
	}
	baseRes := make([]*mpi.Result, len(kerns))
	baseTrace := make([][]byte, len(kerns))
	for i, k := range kerns {
		var err error
		if baseRes[i], baseTrace[i], err = runKernelErr(k.name, k.n); err != nil {
			t.Fatalf("%s baseline: %v", k.name, err)
		}
	}

	const reps = 3
	for _, procs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			eng := mpi.NewEngine()
			defer eng.Close()

			results := make([]*mpi.Result, len(kerns)*reps)
			traces := make([][]byte, len(kerns)*reps)
			errs := make([]error, len(kerns)*reps)
			runConcurrently(procs, len(errs), func(i int) {
				k := kerns[i%len(kerns)]
				results[i], traces[i], errs[i] = runKernelErr(k.name, k.n, mpi.WithEngine(eng))
			})

			for i := range errs {
				if errs[i] != nil {
					t.Fatalf("%s rep %d: %v", kerns[i%len(kerns)].name, i/len(kerns), errs[i])
				}
				k := kerns[i%len(kerns)]
				want, got := baseRes[i%len(kerns)], results[i]
				for r := range want.PerRankUS {
					if want.PerRankUS[r] != got.PerRankUS[r] {
						t.Errorf("%s rep %d rank %d clock: concurrent %v, serial %v",
							k.name, i/len(kerns), r, got.PerRankUS[r], want.PerRankUS[r])
					}
				}
				if !bytes.Equal(baseTrace[i%len(kerns)], traces[i]) {
					t.Errorf("%s rep %d: concurrent pooled trace differs from serial baseline",
						k.name, i/len(kerns))
				}
			}
		})
	}
}

// TestConcurrentReplaysOfOneTrace replays one freshly decoded trace from 8
// goroutines at once through a shared Engine. A decoded trace has no
// communicator index yet (only the merge pre-builds one), so the goroutines
// race to build it on their first peer translation — and the kernel's traffic
// runs on split communicators whose groups are not identities, so every
// translation reads the index's maps. Each replay must reproduce the serial
// replay's per-rank clocks; under -race (make check, at -cpu 1,2) this is the
// test that sees the first-use construction.
func TestConcurrentReplaysOfOneTrace(t *testing.T) {
	const n, replays = 16, 8
	model := netmodel.BlueGeneL()
	collected, err := traceBody(n, model, splitRingBody(50))
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := trace.Encode(&encoded, collected); err != nil {
		t.Fatal(err)
	}
	decode := func() *trace.Trace {
		tr, err := trace.Decode(bytes.NewReader(encoded.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial, err := replay.Replay(decode(), model)
	if err != nil {
		t.Fatal(err)
	}

	tr := decode()
	eng := mpi.NewEngine()
	defer eng.Close()
	results := make([]*mpi.Result, replays)
	errs := make([]error, replays)
	runConcurrently(replays, replays, func(i int) {
		results[i], errs[i] = replay.Replay(tr, model, mpi.WithEngine(eng))
	})
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		for r := range serial.PerRankUS {
			if res.PerRankUS[r] != serial.PerRankUS[r] {
				t.Errorf("replay %d rank %d clock: concurrent %v, serial %v", i, r, res.PerRankUS[r], serial.PerRankUS[r])
			}
		}
	}
}
