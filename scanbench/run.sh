#!/usr/bin/env bash
# Builds the scan benchmark from source inside the checkout and runs it.
# Run from the repository root:
#
#   bash scanbench/run.sh --workload thingos-small --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$bench" && go build -o "$out/scanbench" .) >&2
exec "$out/scanbench" --dir "$out" "$@"
