#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything it writes
# inside the checkout: the binary and Go's build cache go to .bench_build/,
# results to benchmark/out/. This is BENCHMARK.json's command; by hand:
#
#   bash benchmark/run.sh run              # all five workloads, every metric
#   bash benchmark/run.sh trace            # + traced rep, probes, spans, pprof
#   bash benchmark/run.sh check A.json B.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
