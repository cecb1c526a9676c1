#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload live-cluster --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout: the binary and the
# Go build cache go under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

mkdir -p "$out/go-tmp"
export GOCACHE=$out/go-cache
export GOMODCACHE=$out/go-mod
export GOTMPDIR=$out/go-tmp
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
export PERFBENCH_COMMIT=${PERFBENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}
exec "$out/perfbench" "$@"
