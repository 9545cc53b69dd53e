#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the module cache, Go's
# config and telemetry directory, temporary files, and the binary.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" --workdir "$out/work" "$@"
