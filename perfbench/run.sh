#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload bounds-grid --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the checkout; nothing is fetched from the network.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" "$@"
