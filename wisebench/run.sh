#!/usr/bin/env bash
# Builds wise-serve and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash wisebench/run.sh --workload cold-predict --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binaries, the trained
# models and the span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/wisebench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/wisebench"
go build -o "$out/bin/wise-serve" wise/cmd/wise-serve
go build -o "$out/bin/wisebench" .
exec "$out/bin/wisebench" -server "$out/bin/wise-serve" -workdir "$out/work" "$@"
