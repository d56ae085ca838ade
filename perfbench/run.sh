#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload slack-ladder --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the benchmark's own
# durable state. Nothing is downloaded: the module has no dependencies
# outside the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
