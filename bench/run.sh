#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the arguments given. Everything the build writes (binary, Go build
# cache, temporary files) stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/woolbench" .)
exec "$build/woolbench" "$@"
