#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# root of the checkout. Everything the build and the run write (Go build
# cache, binary, temp dirs, results) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
bin="$build/oifbenchmark"
# Rebuild only when a source file is newer than the binary: the driver
# runs the command over a hundred times in one checkout.
if [ ! -x "$bin" ] || [ -n "$(find . -name '*.go' -newer "$bin" -not -path './.bench_build/*' -print -quit)" ] \
	|| [ go.mod -nt "$bin" ] || [ benchmark/go.mod -nt "$bin" ]; then
	go build -C benchmark -o "$bin" .
fi
exec "$bin" "$@"
