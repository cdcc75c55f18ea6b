GO ?= go

.PHONY: test check bench profile-chain race timeline serve

test:
	$(GO) test ./...

# check is the pre-commit gate: go vet, and go vet of internal/mpi for two
# architectures without a frame-pointer walk; the race detector over every
# package with shared state (internal/mpi and internal/trace at -cpu 1,2;
# align and wildcard -short); the root determinism, critical-path, golden-digest, verify,
# single-home and no-orphan suites under -race; nine 10 s fuzz passes
# (histogram text against the fmt scanner it replaced, trace decoder, the
# trace builder's cursor against its indexed path, its square check against
# the exhaustive one, the lowered trace walk
# against a reference expansion, Algorithm 1, MP-net export and checker,
# coNCePTuaL parser and printer, every consumer of a decoded trace).
# .claude/skills/verify/SKILL.md says why each line has its flags.
check:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mpi/
	GOARCH=riscv64 $(GO) vet ./internal/mpi/
	$(GO) test -race -cpu 1,2 ./internal/mpi/...
	$(GO) test -race -cpu 1,2 ./internal/trace/...
	$(GO) test -race ./internal/conceptual/... ./internal/harness/... ./internal/telemetry/... ./internal/service/... ./internal/critpath/... ./internal/mpnet/...
	$(GO) test -race -short ./internal/align/... ./internal/wildcard/...
	$(GO) test -race -run 'TestRunToRunDeterminism|TestPooledWorldDeterminism|TestPooledReplayDeterminism|TestCritPath|TestEngineGoldenDigests|TestVerifySuite|TestVerifyCounterexampleReplay|TestPathSelectorsArePinned|TestSingleHomesArePinned|TestNoOrphanedProductionSymbols' .
	$(GO) test -race -cpu 1,2 -run 'TestConcurrentWorldsDeterminism|TestConcurrentReplaysOfOneTrace' .
	$(GO) test -run NONE -fuzz FuzzHistogramText -fuzztime 10s -fuzzminimizetime 10x ./internal/stats/
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzBuilderCursor -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzHasSquare -fuzztime 10s -fuzzminimizetime 10x ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzWalk -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzAlignLockstep -fuzztime 10s -fuzzminimizetime 10x ./internal/align/
	$(GO) test -run NONE -fuzz FuzzExport -fuzztime 10s ./internal/mpnet/
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 10x ./internal/conceptual/
	$(GO) test -run NONE -fuzz FuzzConsumers -fuzztime 10s -fuzzminimizetime 10x ./internal/core/

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
