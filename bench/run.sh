#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the Go tool writes (build
# cache, temp files, and the module cache it wants to exist even though
# nothing is downloaded) is kept inside the checkout too.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath" GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/rtoss-bench" .
exec "$root/.bench_build/rtoss-bench" "$@"
