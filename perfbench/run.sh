#!/usr/bin/env bash
# Builds the Read Until benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload virus-30k --seed 1 --seconds 55 --trace 0
#
# The Go build cache, temporary files and the traced run's span file all go
# under $CARGO_TARGET_DIR (default .bench_build), so the benchmark writes
# nothing outside the checkout and never reaches the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
