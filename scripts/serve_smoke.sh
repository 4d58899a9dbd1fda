#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the ioatd daemon: boot it,
# submit a golden-configuration job over HTTP, require the returned
# table to be byte-identical to the committed golden corpus, require a
# resubmission to hit the shared point cache, and require SIGTERM to
# drain cleanly (exit 0).
#
# Usage: scripts/serve_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."
PORT="${1:-18321}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/ioatd" ./cmd/ioatd

"$TMP/ioatd" -addr "127.0.0.1:$PORT" -workers 2 -queue 8 2>"$TMP/ioatd.log" &
PID=$!

# Wait for the daemon to come up.
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "FATAL: ioatd did not become healthy" >&2
        cat "$TMP/ioatd.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "runners endpoint lists the experiment registry..." >&2
curl -fsS "$BASE/v1/runners" | jq -e '.runners | length >= 20' >/dev/null
curl -fsS "$BASE/v1/runners" | jq -e '.runners[] | select(.id == "fig6") | .desc != ""' >/dev/null

submit_and_wait() {
    job_id=$(curl -fsS -X POST "$BASE/v1/jobs" \
        -d '{"runners":["fig6"],"seed":1,"scale":0.05,"check":true}' | jq -r .id)
    i=0
    while :; do
        state=$(curl -fsS "$BASE/v1/jobs/$job_id" | jq -r .state)
        [ "$state" = "done" ] && break
        case "$state" in failed | canceled)
            echo "FATAL: job $job_id ended $state" >&2
            curl -fsS "$BASE/v1/jobs/$job_id" >&2
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "FATAL: job $job_id stuck in state $state" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "golden-config job (cold)..." >&2
submit_and_wait
# The table string already ends in a newline and jq -r adds another;
# collapse trailing newlines to one on both sides before the byte diff.
printf '%s\n' "$(curl -fsS "$BASE/v1/jobs/$job_id" | jq -r '.results[0].table')" >"$TMP/served.txt"
printf '%s\n' "$(cat testdata/golden/fig6.txt)" >"$TMP/golden.txt"
if ! diff -u "$TMP/golden.txt" "$TMP/served.txt" >&2; then
    echo "FATAL: daemon-served fig6 table diverges from testdata/golden/fig6.txt" >&2
    exit 1
fi

echo "identical job again (must hit the shared point cache)..." >&2
submit_and_wait
curl -fsS "$BASE/metrics" |
    jq -e '.cache_hits > 0 and .jobs_done >= 2 and .job_latency_s.count >= 2 and .sim_events_total > 0' >/dev/null

echo "NDJSON stream replay of the finished job..." >&2
curl -fsS "$BASE/v1/jobs/$job_id/stream" | tail -1 | jq -e '.done and .state == "done"' >/dev/null

echo "graceful drain on SIGTERM..." >&2
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "FATAL: ioatd exited non-zero on SIGTERM" >&2
    cat "$TMP/ioatd.log" >&2
    exit 1
fi
PID=""

echo "serve-smoke OK" >&2
