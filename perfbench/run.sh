#!/usr/bin/env bash
# Builds the standing benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository; every build artifact, cache and scratch file
# stays under .bench_build/ and .bench_work/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
