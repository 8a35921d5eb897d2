#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go toolchain
# writes (build cache, temporaries, the binary) stays inside the checkout,
# under .bench_build/, so a run reads and writes nothing outside it.
#
#   bash bench/run.sh --workload sim_cnn --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -out bench/out/result.json -repeat 2
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/hierbench" ./bench
exec "$build/hierbench" "$@"
