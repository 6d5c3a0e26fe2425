#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig6-trial --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, toolchain config, the binary, trace
# files) stays under .bench_build/ in the current directory. A checkout
# without the thermaldc module at its root fails the build, so the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
