#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload gus_repeat --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# spill files all live under $CARGO_TARGET_DIR (default .bench_build), so a
# run reads and writes nothing outside the checkout. The build fails, and so
# does the run, when the repository's own module is not beside perfbench/.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# The go command keeps its build cache, module cache and telemetry counters
# under these directories; point them all into $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$bench_dir" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
