#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it belongs to and
# runs it; every argument passes through:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temp files and the binary live in .bench_build/ at
# the checkout root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" "$@"
