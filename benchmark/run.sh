#!/usr/bin/env bash
# Builds the benchmark (and with it the program it imports) from the
# checkout's source and runs it. Everything the build writes stays inside
# the checkout, under .bench_build/.
#
#   bash benchmark/run.sh --workload pipeline_steady --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of the repository (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
