#!/usr/bin/env bash
# Builds specbench from source and runs it with the given arguments.
# Run from the repository root: bash cmd/specbench/run.sh --workload eval-warm
#
# The binary, the Go build cache, the toolchain's temporary and config
# files and the traced run's spans all stay under .bench_build in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C "$(dirname "$0")" build -o "$out/specbench" . >&2
exec "$out/specbench" "$@"
