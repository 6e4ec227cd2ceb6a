#!/usr/bin/env bash
# Builds the benchmark harness from the checkout it sits in and runs it
# with the given flags, e.g.
#
#	bash perfbench/run.sh --workload batch --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every scratch file stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" --scratch "$build" "$@"
