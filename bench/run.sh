#!/usr/bin/env bash
# Builds the oocperf benchmark from source and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload fig8-device-ladder --seed 42 --seconds 10 --trace 0
#
# The build cache and the binary live in .bench_build/ under the current
# directory, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -buildvcs=false -o "$build/oocperf" ./oocperf)
exec "$build/oocperf" "$@"
