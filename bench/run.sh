#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root with the
# arguments given. Everything the build leaves behind — Go's build cache and
# work directories, the binary — stays in .bench_build/ beside BENCHMARK.json,
# so a checkout is read and written and nothing outside it; the first build in
# a fresh checkout therefore compiles the standard library too (about
# 20 s on two cores), later ones only what changed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/pogo-e2e" .
exec "$build/pogo-e2e" "$@"
