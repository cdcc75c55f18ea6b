#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: BENCHMARK.json's command. Everything the Go toolchain writes (build
# cache, temporary files, its own settings) is kept under .bench_build, and
# the benchmark's outputs under benchmark/out.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
# Two Ps: the reference container has two cores, and the world pools size
# themselves from GOMAXPROCS when the process starts.
GOMAXPROCS=2 exec "$build/benchmark" "$@"
