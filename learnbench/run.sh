#!/usr/bin/env bash
# Builds the Learn-level benchmark from this checkout's sources and runs it
# from the checkout's root, passing every argument through:
#
#   bash learnbench/run.sh --workload uwcse-direct --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced runs' spans all go under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/learnbench" && go build -o "$out/learnbench" .)
cd "$root"
exec "$out/learnbench" "$@"
