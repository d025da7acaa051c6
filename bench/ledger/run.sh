#!/bin/bash
# Builds the ledger into the checkout's .bench_build and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, module
# cache, its configuration and telemetry directory, binaries) and all server
# data stay under .bench_build, so a run reads and writes only inside its
# checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/ledger" . >&2
exec "$build/ledger" -root "$root" "$@"
