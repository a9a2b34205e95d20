#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through. The Go build cache, temporary
# files and the binary all stay inside the checkout, under
# .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
cd "$root/bench"
go build -o "$build/commfree-bench" .
cd "$root"
exec "$build/commfree-bench" "$@"
