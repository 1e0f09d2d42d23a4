#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the checkout: bash benchmark/run.sh --workload kv-lan --seed 1 ...
# Everything it writes (Go build cache, binary, node data dirs, span dumps)
# stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
OSCAR_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export OSCAR_BENCH_COMMIT
(cd benchmark && go build -o "$build/oscar-benchmark" .)
exec "$build/oscar-benchmark" "$@"
