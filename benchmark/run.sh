#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there, so that the build cache, the binary and every file a
# run writes stay inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -C "$here" -o "$build/streamsum-bench" .
cd "$root"
exec "$build/streamsum-bench" "$@"
