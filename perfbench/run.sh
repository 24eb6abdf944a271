#!/usr/bin/env bash
# Builds the cost-oracle benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --out "$build" "$@"
