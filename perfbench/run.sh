#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload elect --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Everything the build and the runs leave behind (Go build cache, binary,
# result log, traces, temporary stores) goes under .bench_build/ in the
# current directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
