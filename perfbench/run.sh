#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (the Go
# build cache, the binary, WAL scratch directories) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
