#!/bin/sh
# pointcache_smoke.sh — end-to-end smoke test of ioatbench's point-cache
# directory: run two figures twice over one directory through `go run`,
# require the second run to answer every point from the files the first
# run wrote, and require the directory to hold exactly one
# per-executable subdirectory (16 hex digits). A `go run` that rebuilt
# its binary on every invocation would read 0 hits here.
#
# Usage: scripts/pointcache_smoke.sh
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
d="$TMP/pointcache"

run() {
    go run ./cmd/ioatbench -run fig6,ablpin -scale 0.05 -pointcache "$d" >/dev/null 2>"$TMP/$1.err"
    grep 'point cache:' "$TMP/$1.err" >&2
}

echo "cold run..." >&2
run cold
echo "warm run (must read every point from the directory)..." >&2
run warm
if ! grep -Eq 'point cache: [1-9][0-9]* hits, 0 misses' "$TMP/warm.err"; then
    echo "FATAL: the warm run simulated points again" >&2
    exit 1
fi

sub=$(ls -A "$d")
if [ "$(ls -A "$d" | wc -l)" -ne 1 ] || [ ! -d "$d/$sub" ] ||
    ! printf '%s\n' "$sub" | grep -Eqx '[0-9a-f]{16}'; then
    echo "FATAL: $d holds '$sub', want one subdirectory named with 16 hex digits" >&2
    exit 1
fi

echo "pointcache-smoke OK" >&2
