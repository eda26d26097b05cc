#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Build output and the Go build cache stay under
# .bench_build/ in the current directory (the root of the checkout).
#
#   bash bsoapbench/run.sh --workload psm-reser --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/bsoapbench" && go build -o "$root/.bench_build/bsoapbench" .)
exec "$root/.bench_build/bsoapbench" "$@"
