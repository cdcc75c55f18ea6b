GO ?= go

.PHONY: test check bench profile-chain race timeline serve

LU_LEGS = (TestEventEngineMatchesGoroutineRuntime|TestReplayRepresentationsBitIdentical)/lu-16

test:
	$(GO) test ./...

# check is the pre-commit gate: go vet; the race detector over every package
# with shared state (internal/mpi at -cpu 1,2; align and wildcard -short); the
# root differential, determinism, golden-digest, single-home and no-orphan
# suites under -race; four 10 s fuzz passes (trace decoder, Algorithm 1, MP-net
# export and checker, coNCePTuaL parser and printer).
# .claude/skills/verify/SKILL.md says why each line has its flags.
check:
	$(GO) vet ./...
	$(GO) test -race -cpu 1,2 ./internal/mpi/...
	$(GO) test -race ./internal/trace/... ./internal/conceptual/... ./internal/harness/... ./internal/telemetry/... ./internal/service/... ./internal/critpath/... ./internal/mpnet/...
	$(GO) test -race -short ./internal/align/... ./internal/wildcard/...
	$(GO) test -race -run 'TestEventEngineMatchesGoroutineRuntime|TestRunToRunDeterminism|TestCritPath|TestEngineGoldenDigests|TestPathSelectorsArePinned|TestSingleHomesArePinned|TestNoOrphanedProductionSymbols' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1,2 -run 'TestConcurrentWorldsDeterminism|TestConcurrentReplaysOfOneTrace' .
	$(GO) test -race -run 'TestVerifySuite|TestVerifyCounterexampleReplay' .
	$(GO) test -race -short -run 'TestReplayRepresentationsBitIdentical|TestPooledWorldDeterminism|TestPooledReplayDeterminism' -skip '$(LU_LEGS)' .
	$(GO) test -race -cpu 1 -run '$(LU_LEGS)' .
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzAlignLockstep -fuzztime 10s -fuzzminimizetime 10x ./internal/align/
	$(GO) test -run NONE -fuzz FuzzExport -fuzztime 10s ./internal/mpnet/
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 10x ./internal/conceptual/

race:
	$(GO) test -race ./...

# bench runs the benchmark ledger BENCHMARK.json declares (seven closed-loop
# workloads, results under benchmark/out/); one workload with its span trace is
# `bash benchmark/run.sh -workload W -seed S -trace 1`. The Go micro-benchmarks
# are run by name with `go test -bench`.
bench:
	bash benchmark/run.sh

# profile-chain profiles trace collection (BenchmarkTraceCollectionOverhead's
# traced bt leg at -cpu 2, the ledger's GOMAXPROCS): CPU and heap profiles and
# the test binary land in .profile/, the top of each is printed. The same
# recipe for the other layers is in .claude/skills/verify/SKILL.md.
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
