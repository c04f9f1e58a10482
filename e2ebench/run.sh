#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload verify_r4 --seed 1 --seconds 18 --trace 0
#   bash e2ebench/run.sh --steady 10
#
# Run it from the repository root.  Everything it builds or writes (the Go
# build cache, the binary, span files) stays under the build directory,
# ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# The go command's caches and its telemetry counters go under the build
# directory too; GOTOOLCHAIN=local keeps it from fetching another toolchain.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off
# e2ebench is a module of its own (e2ebench/go.mod) that builds against
# this checkout's packages.
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" --out-dir "$build" "$@"
