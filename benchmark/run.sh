#!/usr/bin/env bash
# Builds the fleet-sweep benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload exec-quickstart --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the runs write stays in .bench_build/ at the root:
# the Go build cache, Go's temporary and config files, the benchmark and
# carsim binaries, and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/fleetbench" .)
exec "$build/fleetbench" "$@"
