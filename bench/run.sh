#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Everything the
# build and the run write (binary, Go build cache, WAL directories, span
# files) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local TMPDIR="$out/tmp"
go build -C "$root/bench" -o "$out/dkf-e2e" .
exec "$out/dkf-e2e" "$@"
