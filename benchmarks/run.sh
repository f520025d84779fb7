#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds benchmarks/a1perf from source into
# .bench_build/ (Go's build cache and temp files kept there too, so nothing
# is written outside the checkout) and runs it with the arguments given.
# Run from the repository root:
#   bash benchmarks/run.sh --workload point --seed 1 --seconds 6 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/a1perf" ./benchmarks/a1perf
exec "$build/a1perf" "$@"
