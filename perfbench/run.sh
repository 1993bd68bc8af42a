#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-ingest --seed 1 --seconds 8 --trace 0
#
# The Go build cache lives in .bench_build/ too, and the build never
# reaches the network (no dependencies outside the repository).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
