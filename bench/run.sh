#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through, e.g.
#
#   bash bench/run.sh --workload serve-mixed --seed 0 --seconds 30 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
