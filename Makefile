GO ?= go

.PHONY: test check bench profile-chain race verify-fuzz timeline serve

LU_LEGS = (TestEventEngineMatchesGoroutineRuntime|TestReplayRepresentationsBitIdentical)/lu-16

test:
	$(GO) test ./...

# check is the pre-commit gate: static analysis, the race detector over the
# concurrent subsystems — the trace collector (ranks of the goroutine
# reference register communicators concurrently, traced worlds run side by
# side; the inter-node merge itself is single-threaded), the simulated MPI
# transport (the discrete-event scheduler's driver/rank coroutine switches,
# raced at -cpu 1,2 so both the single-P and the idle-second-P paths run, and
# the goroutine reference runtime's mailboxes and lockedColl rendezvous), the
# coNCePTuaL cursors and tree walk, the harness fan-out and worker pool, the
# telemetry registry and the benchd service — the differential suites that
# pin each layer's production path to its reference (event engine vs
# goroutine runtime, cursor vs coroutine replay) at bit-identical traces and
# clocks, the concurrent-worlds determinism test at -cpu 1,2 (pooled worlds
# migrating between real threads under the detector) with the concurrent
# replays of one freshly decoded trace (racing to build its communicator
# index on first use), the golden digests that pin the production chain to
# testdata/engine_golden.json and the test that pins the set of path
# selectors, also under -race, plus short fuzz passes over the
# untrusted-upload trace decoder and over Algorithm 1 on whatever it accepts
# (lockstep classes against one rank per class; -fuzzminimizetime because
# its seeds are whole encoded traces, and the engine otherwise spends the ten
# seconds shrinking the first input that adds coverage). Algorithm 1 and
# Algorithm 2 run their suites under the detector too, on their own line
# with -short: both are single-threaded, and the class-A legs of align's
# comparison take a minute and a half under it.
#
# The two LU legs that compare against the goroutine reference run on their
# own line at -cpu 1: under -race with two Ps the reference's real-thread
# ANY-source races land 1.0-1.5 % from the event engine's clocks, over the
# suites' 1 % bound (which stays); with one P they stay inside it. Every
# other kernel's goroutine leg still runs multi-P.
check:
	$(GO) vet ./...
	$(GO) test -race -cpu 1,2 ./internal/mpi/...
	$(GO) test -race ./internal/trace/... ./internal/conceptual/... ./internal/harness/... ./internal/telemetry/... ./internal/service/... ./internal/critpath/... ./internal/mpnet/...
	$(GO) test -race -short ./internal/align/... ./internal/wildcard/...
	$(GO) test -race -run 'TestEventEngineMatchesGoroutineRuntime|TestRunToRunDeterminism|TestCritPath|TestEngineGoldenDigests|TestPathSelectorsArePinned' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1,2 -run 'TestConcurrentWorldsDeterminism|TestConcurrentReplaysOfOneTrace' .
	$(GO) test -race -run 'TestVerifySuite|TestVerifyCounterexampleReplay' .
	$(GO) test -race -short -run 'TestReplayRepresentationsBitIdentical|TestPooledWorldDeterminism|TestPooledReplayDeterminism' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1 -run '$(LU_LEGS)' .
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzAlignLockstep -fuzztime 10s -fuzzminimizetime 10x ./internal/align/

# verify-fuzz drives the MP-net exporter and the bounded model checker
# with untrusted trace documents: anything the codec accepts must lower,
# export and check without panicking or exploding.
verify-fuzz:
	$(GO) test -run NONE -fuzz FuzzExport -fuzztime 10s ./internal/mpnet/

race:
	$(GO) test -race ./...

# bench runs the benchmark ledger BENCHMARK.json declares — seven closed-loop
# workloads, end-to-end and per-layer metrics, results under benchmark/out/.
# `bash benchmark/run.sh -workload W -seed S -trace 1` runs one workload with
# its span trace. It is the one benchmark surface; the Go micro-benchmarks in
# bench_test.go and verify_bench_test.go are run by name
# (`go test -run NONE -bench BenchmarkMergeRankSeqs -cpu 1,2 -benchmem .`).
bench:
	bash benchmark/run.sh

# profile-chain attributes the time and bytes of trace collection — the
# layer the benchmark ledger's chain-stencil and chain-wildcard ops spend
# most of their time in — to functions, on BenchmarkTraceCollectionOverhead's
# traced leg (bt, class S, 16 ranks under trace.Collector), at -cpu 2 — the
# ledger's GOMAXPROCS — whatever the host has. CPU and heap profiles, and the
# test binary they resolve against, land in .profile/, and the top of each is
# printed. Drill down with
# `go tool pprof -peek 'trace.demoteToFirst' .profile/repro.test .profile/mem.prof`.
# The other layers' shares of an op come from the ledger itself:
# `bash benchmark/run.sh -workload chain-stencil -trace 1`. What the engine
# itself costs per rank switch, and whether that depends on GOMAXPROCS:
# `go test -run NONE -bench 'BenchmarkRunWorld/fast|BenchmarkRankSwitch' -cpu 1,2 . ./internal/mpi`.
# The generate path — Algorithm 1 and the print/parse round trip on the
# ledger's poorly compressing gen-irregular input — has no target of its own;
# profile BenchmarkAlign (internal/align: sweep3d-64/A is the ledger's input,
# lu-64/A and halo2d-64/A the other 9-classes-for-64-ranks kernels, bt-64/S
# the one whose classes are single ranks) or BenchmarkGeneratePipeline the
# same way:
# `mkdir -p .profile && go test -run NONE -bench 'BenchmarkAlign$/(sweep3d|lu|halo2d)-64/A' -benchtime 100x -benchmem -cpu 2 -cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 -o .profile/align.test -outputdir .profile ./internal/align && go tool pprof -top -cum -nodecount 40 .profile/align.test .profile/cpu.prof`
# (`-bench 'BenchmarkAlign$/bt-64/S'` for the single-rank case; in the root
# package `-bench 'BenchmarkGeneratePipeline/sweep3d-64/A/print.parse'` is
# the parser's leg; drop -memprofile when reading CPU shares, its stack
# walks are a fifth of the samples).
# The model checker (the ledger's verify-wildcard) likewise:
# `mkdir -p .profile && go test -run NONE -bench 'BenchmarkVerifyCheck/check-8ranks' -benchtime 20x -benchmem -cpu 2 -cpuprofile cpu.prof -o .profile/repro.test -outputdir .profile . && go tool pprof -top -nodecount 25 .profile/repro.test .profile/cpu.prof`
# (its B/state column is what one explored state costs the allocator).
# A stackless rank's cost per event (the ledger's exec-whatif: replay and
# generated-program execution on pooled worlds) likewise, on the ledger's own
# ring@1024 replay leg:
# `mkdir -p .profile && go test -run NONE -bench 'BenchmarkReplay/ring-1024' -benchtime 100x -benchmem -cpu 2 -cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 -o .profile/repro.test -outputdir .profile . && go tool pprof -top -nodecount 25 .profile/repro.test .profile/cpu.prof`
# (its ns/event and B/event columns are the ledger's replay.ns_per_event and
# the per-event share of alloc_mb_per_op; `BenchmarkInterpExecute/cursor` is
# the generated-program half).
profile-chain:
	mkdir -p .profile
	$(GO) test -run NONE -bench 'BenchmarkTraceCollectionOverhead/^traced$$' -benchtime 200x -benchmem -cpu 2 \
		-cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 \
		-o .profile/repro.test -outputdir .profile .
	$(GO) tool pprof -top -nodecount 25 .profile/repro.test .profile/cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 .profile/repro.test .profile/mem.prof

# timeline produces a ready-to-view virtual-time timeline of a 64-rank ring
# trace run; load the JSON at https://ui.perfetto.dev (or
# chrome://tracing) to browse per-rank MPI spans on the simulated clock.
timeline:
	$(GO) run ./cmd/tracegen -app ring -n 64 -class S -o /dev/null -timeline timeline.json
	@echo "wrote timeline.json — open https://ui.perfetto.dev and load it"

# serve starts the generation daemon with a persistent result cache; see
# README "Serving" for the request walkthrough.
serve:
	$(GO) run ./cmd/benchd -addr :8125 -cache-dir .benchd-cache
