#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash jdvsbench/run.sh --workload uniform_cold --seed 1 --seconds 16 --trace 0
# Run from the repository root. Build outputs and the Go build cache stay in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/jdvsbench" && go build -o "$out/jdvsbench" .)
exec "$out/jdvsbench" "$@"
