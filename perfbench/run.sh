#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload grid_10d --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache) goes to .bench_build/ in the
# current directory; nothing is fetched, so a checkout without the module
# source fails to build and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
