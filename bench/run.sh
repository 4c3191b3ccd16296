#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (binary and Go build
# cache under .bench_build/) and runs it from the checkout root with the
# arguments given: this is the command BENCHMARK.json names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go command writes stays inside the checkout, and nothing
# it needs comes from the caller's environment ($HOME may be unset).
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/bench" && go build -o "$build/flowerbench" .)
cd "$root"
exec "$build/flowerbench" "$@"
