#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through to the binary. The binary, the Go build cache and the run's
# temporary files all stay under .bench_build/ at the root of the
# checkout, whatever the caller's Go environment says.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
(cd "$here" && go build -o "$out/trbench" .)
exec "$out/trbench" -workdir "$out" "$@"
