#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module and telemetry
# directories, binary, traces, temporary stores) stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
