#!/usr/bin/env bash
# Builds the benchmark from source and runs it in the foreground. exec
# replaces this shell with the binary, so a signal or timeout aimed at the
# script reaches the benchmark itself and nothing is left behind it.
# Everything the build writes (binary, Go build and module caches, the
# toolchain's own counters) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The commit is a label in the report's header line; a driver checkout is
# not a git repository and reads "unknown". -buildvcs=false because the
# toolchain's own stamping fails the build where git refuses the directory.
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$root/bench" && go build -ldflags "-X main.commit=$commit" -o "$out/bvcperf" .)
cd "$root"
exec "$out/bvcperf" "$@"
