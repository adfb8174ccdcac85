#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it in the foreground.
# Everything the build writes (binary, Go build cache, module cache, the go
# command's own telemetry counters) stays under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	go build -C "$here" -o "$out/bench" .
exec "$out/bench" "$@"
