#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build writes stays under .bench_build in the checkout, and compilation
# is over before the program starts its clock.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/go-tmp"
export GOTMPDIR="$out/go-tmp" GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the user's configuration
# directory; point that into the checkout as well.
(cd bench && XDG_CONFIG_HOME="$out/config" GOENV=off go build -o "$out/bfcbench" .)
exec "$out/bfcbench" "$@"
