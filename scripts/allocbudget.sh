#!/usr/bin/env bash
# allocbudget.sh — heap-escape budget for the simulator's hot-path packages.
#
# Runs the compiler's escape analysis (go build -gcflags='-m') over the
# hot-path packages and diffs the escape sites against a committed
# allowlist. Every entry in the allowlist is a known, deliberate
# allocation (constructors, free-list refills, panic messages); a NEW
# escape means a previously stack-allocated or pooled object started
# reaching the heap, which silently breaks the 0 allocs/op contract
# that BenchmarkSteadyStatePacketPath asserts at one sweep point.
#
# Allowlist entries are normalized to "file message" — line and column
# are stripped so routine edits do not churn the file — but failures
# report the raw compiler position (file:line:col) for the new sites.
#
# Usage:
#   scripts/allocbudget.sh              # check default hot-path packages
#   scripts/allocbudget.sh -update      # rewrite the allowlist from current output
#   scripts/allocbudget.sh ./internal/sim   # check specific packages
#   ALLOWLIST=path scripts/allocbudget.sh   # override the allowlist (tests)
#
# Exit status: 0 clean, 1 new escapes, 2 usage/build error.
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOWLIST="${ALLOWLIST:-testdata/lint/escape_allowlist.txt}"

update=0
pkgs=()
for arg in "$@"; do
    case "$arg" in
    -update | --update) update=1 ;;
    -h | --help)
        sed -n '2,20p' "$0"
        exit 0
        ;;
    -*)
        echo "allocbudget: unknown flag $arg" >&2
        exit 2
        ;;
    *) pkgs+=("$arg") ;;
    esac
done
if [ "${#pkgs[@]}" -eq 0 ]; then
    pkgs=(./internal/sim ./internal/link ./internal/nic ./internal/dma
        ./internal/tcp ./internal/mem ./internal/cpu)
fi

# -gcflags applies only to the packages named on the command line, so
# dependencies compile quietly; the build cache replays the diagnostics
# on later runs.
raw="$(mktemp)"
sites="$(mktemp)"
trap 'rm -f "$raw" "$sites"' EXIT
if ! go build -o /dev/null -gcflags='-m' "${pkgs[@]}" >"$raw" 2>&1; then
    echo "allocbudget: go build failed:" >&2
    cat "$raw" >&2
    exit 2
fi

# The escape sites, with module-relative paths. The build cache replays
# a package's diagnostics with the paths of the directory that first
# compiled it, so after a `go build -gcflags=-m .` inside internal/mem
# they read ./cache.go here too. Resolve each ./ path against the
# package its "# <import path>" header names.
module="$(awk '$1 == "module" { print $2; exit }' go.mod)"
awk -v mod="$module" '
    /^# / {
        dir = $2 == mod ? "." : index($2, mod "/") == 1 ? substr($2, length(mod) + 2) : ""
        next
    }
    dir != "" && /^\.\// { $0 = dir substr($0, 2) }
    /escapes to heap|moved to heap/
' "$raw" >"$sites"

# One normalized key per escape site: position stripped to the file.
current="$(sed -E 's/:[0-9]+(:[0-9]+)?: / /' "$sites" | LC_ALL=C sort -u || true)"

if [ "$update" -eq 1 ]; then
    mkdir -p "$(dirname "$ALLOWLIST")"
    {
        echo "# Known heap-escape sites in the hot-path packages."
        echo "# Regenerate with: scripts/allocbudget.sh -update"
        echo "# Format: <file> <compiler escape message> (line/column stripped)."
        printf '%s\n' "$current"
    } >"$ALLOWLIST"
    echo "allocbudget: wrote $(printf '%s\n' "$current" | grep -c .) entries to $ALLOWLIST"
    exit 0
fi

if [ ! -f "$ALLOWLIST" ]; then
    echo "allocbudget: allowlist $ALLOWLIST not found (run with -update to create it)" >&2
    exit 2
fi
allowed="$(grep -v '^#' "$ALLOWLIST" | grep -v '^$' | LC_ALL=C sort -u || true)"

new_keys="$(LC_ALL=C comm -23 <(printf '%s\n' "$current") <(printf '%s\n' "$allowed") | grep -v '^$' || true)"
stale="$(LC_ALL=C comm -13 <(printf '%s\n' "$current") <(printf '%s\n' "$allowed") | grep -v '^$' || true)"

if [ -n "$stale" ]; then
    echo "allocbudget: warning: $(printf '%s\n' "$stale" | grep -c .) stale allowlist entries (escape no longer present):" >&2
    printf '%s\n' "$stale" | sed 's/^/  /' >&2
fi

if [ -n "$new_keys" ]; then
    echo "allocbudget: NEW heap escapes not in $ALLOWLIST:" >&2
    # Report the raw compiler lines (with line:col) for each new key.
    while IFS= read -r key; do
        file="${key%% *}"
        msg="${key#* }"
        grep -F "$msg" "$sites" | grep -F "$file" | LC_ALL=C sort -u | sed 's/^/  /' >&2
    done <<<"$new_keys"
    echo "allocbudget: if an allocation is deliberate (pool refill, cold path)," >&2
    echo "allocbudget: justify it in review and re-run scripts/allocbudget.sh -update" >&2
    exit 1
fi

echo "allocbudget: OK ($(printf '%s\n' "$current" | grep -c .) known escape sites, 0 new)"
