#!/bin/sh
# Pre-PR gate: vet, lint, build, race-test the whole module, and smoke-run
# the S benchmark preset. Run from the repo root: ./scripts/check.sh
#
# With -bench-gate, the smoke run is additionally compared against the
# newest committed results/BENCH_*.json and the script fails on any
# regression beyond the comparator's noise threshold (BENCHMARKS.md).
set -eux

bench_gate=0
if [ "${1:-}" = "-bench-gate" ]; then
    bench_gate=1
fi

go vet ./...
mkdir -p results
# The 120s budget keeps a slow analyzer from quietly making the pre-PR gate
# unusable (a whole-module run takes a few seconds, LINTING.md); the
# measured wall-clock lands in the SARIF run properties for CI to audit.
go run ./cmd/wise-lint -budget 120s -sarif results/lint.sarif ./...
go build ./...
# The end-to-end benchmark (wisebench/, BENCHMARK.json) is its own Go module,
# so ./... above skips it; it builds against serve, session and kernels APIs,
# so vet it and run its short tests here.
(cd wisebench && GOWORK=off go vet ./... && GOWORK=off go test -short ./...)
# Focused race gate over the concurrency-heavy packages (worker pools,
# checkpoint collector, fault injection, session store)
# before the full module run.
go test -race ./internal/perf ./internal/ml ./internal/resilience/... ./internal/serve ./internal/session
go test -race ./...

# Benchmark smoke: the S preset must run to completion and produce a valid
# BENCH file. The result is discarded unless -bench-gate asked for the
# regression comparison — wall-clock on a loaded dev machine is not a gate
# by default.
bench_out=$(mktemp /tmp/BENCH_check.XXXXXX.json)
# set -e exits on the first failing step; the trap still removes the file.
trap 'rm -f "$bench_out"' EXIT
go run ./cmd/wise-bench -suite S -o "$bench_out"
if [ "$bench_gate" = 1 ]; then
    baseline=$(ls results/BENCH_*.json 2>/dev/null | sort -V | tail -1)
    if [ -z "$baseline" ]; then
        echo "check.sh: -bench-gate set but no results/BENCH_*.json baseline exists" >&2
        exit 2
    fi
    go run ./cmd/wise-bench -compare "$baseline" "$bench_out"
fi
