#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash benchjob/run.sh --workload bv-dense --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, traces, recorded exact counts) stays under
# .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off

# Build output goes to the log file, so stdout carries only the
# benchmark's own report.
if ! (cd "$here" && go build -o "$out/benchjob" .) >"$out/build.log" 2>&1; then
  cat "$out/build.log" >&2
  echo "benchjob: build failed" >&2
  exit 1
fi

exec "$out/benchjob" "$@"
