#!/usr/bin/env bash
# Builds knockbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash cmd/knockbench/run.sh --workload crawl --seed 7 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's
# scratch data all stay in .bench_build under the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/knockbench" ./cmd/knockbench
exec "$out/knockbench" "$@"
