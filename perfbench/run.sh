#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the checkout; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload nas-matrix --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the toolchain's own state all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
