#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the Chrome traces stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build" "$@"
