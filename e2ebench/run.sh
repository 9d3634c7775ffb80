#!/usr/bin/env bash
# Builds the end-to-end restoration benchmark from source and runs one
# workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload storm --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the go command's configuration and the
# binary stay under .bench_build/ in the current directory. Without the
# repository's module next to the benchmark the build fails and the script
# exits non-zero.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
