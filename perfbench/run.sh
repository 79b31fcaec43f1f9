#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example
#
#   bash perfbench/run.sh --workload das-paper --seed 0 --seconds 25 --trace 0
#
# The build cache, temporary files, the binary and the benchmark's outputs
# (spans, CPU profiles, result records) all stay under .bench_build/. So do
# the go command's user configuration and telemetry counters, which it
# otherwise keeps in the home directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export PPROF_TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
