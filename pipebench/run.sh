#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it:
#
#   bash pipebench/run.sh --workload wsc-interproc --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the span files stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$(dirname "$0")" build -o "$out/pipebench" .
exec "$out/pipebench" "$@"
