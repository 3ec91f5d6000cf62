#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload apps-full --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, temporary files, the binary, traced-run spans)
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/spans"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" -spans-dir "$build/spans" "$@"
