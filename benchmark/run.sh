#!/usr/bin/env bash
# Builds softbench from source inside the checkout and runs it with the
# given arguments. Run from the repository root: bash benchmark/run.sh ...
# Everything the go tool writes (build cache, module cache, temp files,
# telemetry) is pointed into .bench_build, so nothing outside the checkout
# is touched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
(cd benchmark && go build -o "$build/softbench" .)
exec "$build/softbench" "$@"
