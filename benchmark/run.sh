#!/usr/bin/env bash
# Builds the benchmark binary and runs it from the repository root:
#
#   bash benchmark/run.sh -workload all -seed 1
#
# Flags are passed through unchanged; see benchmark/README.md. Everything
# the go tool would write elsewhere (build cache, temporary files, module
# cache, telemetry) is kept under .bench_build, and it never downloads.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/bin" "$b/tmp"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$b/bin/benchmark" .
exec "$b/bin/benchmark" "$@"
