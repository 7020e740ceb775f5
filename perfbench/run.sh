#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 15 --trace 0
# Run it from the repository root. Everything it builds or writes, the Go
# build cache included, stays under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
