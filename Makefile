GO ?= go

.PHONY: test check bench bench6 bench7 bench8 bench10 bench-all profile-chain race verify-fuzz timeline serve

LU_LEGS = (TestEventEngineMatchesGoroutineRuntime|TestReplayRepresentationsBitIdentical)/lu-16

test:
	$(GO) test ./...

# check is the pre-commit gate: static analysis, the race detector over the
# concurrent subsystems — the parallel trace pipeline, the simulated MPI
# transport (the discrete-event scheduler's driver/rank coroutine switches,
# raced at -cpu 1,2 so both the single-P and the idle-second-P paths run, and
# the goroutine reference runtime's mailboxes and lockedColl rendezvous), the
# coNCePTuaL cursors and tree walk, the harness fan-out and worker pool, the
# telemetry registry and the benchd service — the differential suites that
# pin each layer's production path to its reference (event engine vs
# goroutine runtime, cursor vs coroutine replay) at bit-identical traces and
# clocks, the concurrent-worlds determinism test at -cpu 1,2 (pooled worlds
# migrating between real threads under the detector), the golden digests
# that pin the production chain to testdata/engine_golden.json and the test
# that pins the set of path selectors, also under -race, plus a short fuzz
# pass over the untrusted-upload trace decoder.
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
	$(GO) test -race -run 'TestEventEngineMatchesGoroutineRuntime|TestRunToRunDeterminism|TestCritPath|TestEngineGoldenDigests|TestPathSelectorsArePinned' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1,2 -run TestConcurrentWorldsDeterminism .
	$(GO) test -race -run 'TestVerifySuite|TestVerifyCounterexampleReplay' .
	$(GO) test -race -short -run 'TestReplayRepresentationsBitIdentical|TestPooledWorldDeterminism|TestPooledReplayDeterminism' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1 -run '$(LU_LEGS)' .
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/trace/

# verify-fuzz drives the MP-net exporter and the bounded model checker
# with untrusted trace documents: anything the codec accepts must lower,
# export and check without panicking or exploding.
verify-fuzz:
	$(GO) test -run NONE -fuzz FuzzExport -fuzztime 10s ./internal/mpnet/

race:
	$(GO) test -race ./...

# bench refreshes the BENCH_3.json baseline: it runs the runtime-substrate
# benchmarks (simulated world execution — including the telemetry-enabled
# variant whose distance from the fast path is the recorded instrumentation
# overhead — interpreter, replay) and merges the measured numbers into the
# post_change section, preserving any recorded pre-change history. Benchmark
# output also streams to the terminal.
bench:
	$(GO) test -run NONE -bench 'BenchmarkRunWorld|BenchmarkInterpExecute|BenchmarkReplay' \
		-benchtime 60x -benchmem . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -merge BENCH_3.json > BENCH_3.json.tmp
	mv BENCH_3.json.tmp BENCH_3.json

# bench6 refreshes BENCH_6.json, the incast-contention baseline: the series
# at GOMAXPROCS 1 and 4, whose engine_speedups ratios record how far the
# goroutine runtime's condvar broadcast storms fall behind the event engine
# once more than one P is in play. (The rank-scaling curve that used to live
# here moved to bench7, re-measured warm on the world pool; BENCH_6.json
# keeps the historical cold curve.)
bench6:
	$(GO) test -run NONE -bench BenchmarkIncastContention -benchtime 3x -cpu 1,4 -benchmem -timeout 30m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -series -merge BENCH_6.json > BENCH_6.json.tmp
	mv BENCH_6.json.tmp BENCH_6.json

# bench7 refreshes BENCH_7.json, the world-reuse and stackless-rank baseline:
# the rank-scaling curve re-measured warm (stackless cursors on a pooled
# world — the long-lived-host configuration) from 1k to 1M ranks next to the
# cold and goroutine series, and the 65536-rank cold-vs-warm world setup gap
# the Engine pool buys. -benchtime 1x: one world per data point — a 1M-rank
# world is minutes. Two invocations merge into one document.
bench7:
	$(GO) test -run NONE -bench BenchmarkRankScaling -benchtime 1x -benchmem -timeout 60m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -series -merge BENCH_7.json > BENCH_7.json.tmp
	mv BENCH_7.json.tmp BENCH_7.json
	$(GO) test -run NONE -bench BenchmarkWorldSetup -benchtime 1x -benchmem -timeout 60m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -series -merge BENCH_7.json > BENCH_7.json.tmp
	mv BENCH_7.json.tmp BENCH_7.json

# bench8 refreshes BENCH_8.json, the causal-profiler baseline: the
# critpath/fast BenchmarkRunWorld pairs at 64 and 256 ranks record the
# profiler-enabled overhead, and the deprecords/graphbytes metrics on the
# critpath legs record the per-scale dependency-graph memory ceiling.
bench8:
	$(GO) test -run NONE -bench 'BenchmarkRunWorld/(fast|critpath)' \
		-benchtime 60x -benchmem . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -merge BENCH_8.json > BENCH_8.json.tmp
	mv BENCH_8.json.tmp BENCH_8.json

# bench10 refreshes BENCH_10.json, the model-checker throughput baseline:
# bounded exploration of LU's wildcard-heavy MP-net at 4, 8 and 16 ranks.
# benchjson's verify_throughput section records the states/sec metric per
# rank count next to the per-exploration ns/op series.
bench10:
	$(GO) test -run NONE -bench BenchmarkVerifyCheck -benchtime 10x -benchmem -timeout 30m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -series -merge BENCH_10.json > BENCH_10.json.tmp
	mv BENCH_10.json.tmp BENCH_10.json

# bench-all runs the full evaluation-reproduction suite without touching the
# recorded baseline.
bench-all:
	$(GO) test -run NONE -bench=. -benchmem .

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
# profile BenchmarkAlign or BenchmarkGeneratePipeline the same way:
# `mkdir -p .profile && go test -run NONE -bench 'BenchmarkAlign$/sweep3d-64/A' -benchtime 100x -benchmem -cpu 2 -cpuprofile cpu.prof -memprofile mem.prof -memprofilerate 4096 -o .profile/repro.test -outputdir .profile . && go tool pprof -top -cum -nodecount 40 .profile/repro.test .profile/cpu.prof`
# (`-bench 'BenchmarkGeneratePipeline/sweep3d-64/A/print.parse'` is the
# parser's leg; drop -memprofile when reading CPU shares, its stack walks
# are a fifth of the samples).
# The model checker (the ledger's verify-wildcard) likewise:
# `mkdir -p .profile && go test -run NONE -bench 'BenchmarkVerifyCheck/check-8ranks' -benchtime 20x -benchmem -cpu 2 -cpuprofile cpu.prof -o .profile/repro.test -outputdir .profile . && go tool pprof -top -nodecount 25 .profile/repro.test .profile/cpu.prof`
# (its B/state column is what one explored state costs the allocator).
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
