#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness inside the checkout
# — Go's build cache and temporary directory included, so nothing is read or
# written outside it — and runs it with the driver's arguments. A human can
# equally run `go run ./benchmark ...` from the module root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds the module it measures" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
