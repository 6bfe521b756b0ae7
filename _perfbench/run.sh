#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash _perfbench/run.sh --workload snapshot --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Every build product (binary, Go build
# cache, temporary files) lands under .bench_build/ in the checkout, so the
# benchmark reads and writes nothing outside it. The last line of standard
# output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "${here}")"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/config"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local

go -C "${here}" build -o "${build}/perfbench" .
exec "${build}/perfbench" -spans-dir "${build}/spans" "$@"
