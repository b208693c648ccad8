#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload detect-flat --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind — Go's build cache included —
# goes under .bench_build/ in the checkout, so nothing outside it is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
