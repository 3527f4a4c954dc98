#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (Go's build cache and temp files are kept there too, so nothing is written
# outside the checkout) and runs it with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/fzmod-benchmark" .)
cd "$root"
exec "$build/fzmod-benchmark" "$@"
