#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 30 --trace 0
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
