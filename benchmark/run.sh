#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the
# given arguments. Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload stream --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every trace it writes stay in
# .bench_build/ inside the checkout; nothing is fetched over the network.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod || ! -d testdata/golden ]]; then
	echo "benchmark/run.sh: run from the root of an ioatsim checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry counters under the
# user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
