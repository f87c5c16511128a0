#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Usage (from the repository root):
#   bash _perfbench/run.sh --workload metric-fleet --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build and module caches, the benchmark binary
# and the span files of traced runs. The build needs the repository's own
# module one directory up from this script; without it the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
