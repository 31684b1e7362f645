#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments. The
# binary, the Go build cache, the toolchain's own files (HOME) and temporary
# files all stay under .bench_build in the current directory, the root of a
# checkout, so a run reads and writes nothing outside it. The bench module
# imports the repository's internal packages through its replace directive:
# without the repository around it the build fails, and this script exits
# non-zero without printing a result.
set -euo pipefail
build=$PWD/.bench_build
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$build/tmp" "$build/home"
HOME=$build/home XDG_CONFIG_HOME=$build/home/.config GOCACHE=$build/go-cache GOTMPDIR=$build/tmp \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= go build -C "$here" -o "$build/tatbench" . >&2
exec "$build/tatbench" "$@"
