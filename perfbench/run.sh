#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload logical-1drive --seed 1999 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build artifact (binary, Go
# build cache, temp files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
