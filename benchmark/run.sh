#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark (a Go module of its own,
# nested in the repo's) and runs it from the checkout root with the
# given flags. Everything Go writes while building stays under
# .bench_build/ in the checkout, which .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
