#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload mdtest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (binary and Go build cache)
# stay under .bench_build/ in that root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
