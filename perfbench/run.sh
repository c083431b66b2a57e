#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload daemon-2c --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so the benchmark reads and writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
