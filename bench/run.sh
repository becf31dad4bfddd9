#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it once:
#
#	bash bench/run.sh --workload vod_zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind — the binary and Go's build cache —
# goes under .bench_build/ at the root of the checkout, traces and run
# records under bench/out/; nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/avdb-bench" .
exec "$build/avdb-bench" -out "$here/out" "$@"
