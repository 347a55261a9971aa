#!/usr/bin/env bash
# Builds the benchmark binary from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload search-d128 --seed 1 --seconds 10 --trace 0
# Every file it writes (Go build cache, binary, ground-truth cache, data
# directories, trace files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --cache-dir "$out" "$@"
