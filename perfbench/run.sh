#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload single-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
