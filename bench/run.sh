#!/bin/bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Run it from the repository root:
#
#   bash bench/run.sh --workload probe_tcp --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1 --runs 5        # every workload; writes bench/out/BENCH.json
#   bash bench/run.sh -compare A.json B.json
#
# The Go build cache and the binary stay under .bench_build/ in the
# checkout, so nothing is read or written outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$root/.bench_build/tinybench" .)
exec "$root/.bench_build/tinybench" "$@"
