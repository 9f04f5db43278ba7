#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload nfs-read-hit --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache, binary, CPU profiles) stays
# under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
