#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root:
#
#   bash perfbench/run.sh --workload lu16 --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary, temporary trace files
# and the span log) stays under $CARGO_TARGET_DIR, or .bench_build when that
# is unset. It needs the repository's go.mod one directory up: from a copy
# holding only the benchmark, the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/perfbench"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
# XDG_CONFIG_HOME keeps the go command's telemetry and env file in $out too.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && XDG_CONFIG_HOME=$out/config go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" -workdir "$out/perfbench" "$@"
