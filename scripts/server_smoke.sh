#!/usr/bin/env bash
# Server stage (docs/SERVER.md): boot `macs serve` on an ephemeral
# port and assert the serving contract end to end:
#   (a) /healthz answers ok, /metrics is valid Prometheus text with
#       the macs_server_* series next to the pipeline counters,
#   (b) one POST /v1/analyze body is byte-identical to the `macs
#       batch` CLI rendering of the same job,
#   (c) SIGTERM during an in-flight (deliberately slowed) batch
#       finishes the accepted work, flushes the checkpoint journal,
#       and exits 0 — graceful drain, no request silently dropped.
#
# No external curl: all HTTP goes through `macs http`, the in-process
# client (src/server/client.h).
#
# Usage: scripts/server_smoke.sh [path-to-macs]
set -euo pipefail

cd "$(dirname "$0")/.."
MACS=${1:-${MACS:-build/tools/macs}}
if [[ ! -x "$MACS" ]]; then
    echo "server: '$MACS' is not built (cmake --build build)" >&2
    exit 1
fi

tmp=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill -KILL "$SERVE_PID" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT
fail() { echo "server: FAIL: $*" >&2; exit 1; }

# start_serve ARGS... — boot `macs serve` on an ephemeral port in the
# background; sets SERVE_PID and PORT.
start_serve() {
    rm -f "$tmp/port"
    "$MACS" serve --host 127.0.0.1 --port 0 --port-file "$tmp/port" \
        --workers 2 "$@" >"$tmp/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$tmp/port" ]] && break
        kill -0 "$SERVE_PID" 2>/dev/null ||
            { sed 's/^/    /' "$tmp/serve.log" >&2
              fail "serve died before binding"; }
        sleep 0.1
    done
    [[ -s "$tmp/port" ]] || fail "serve never wrote the port file"
    PORT=$(cat "$tmp/port")
}

# stop_serve — SIGTERM, wait, assert exit 0 (graceful drain).
stop_serve() {
    kill -TERM "$SERVE_PID"
    local rc=0
    wait "$SERVE_PID" || rc=$?
    SERVE_PID=""
    (( rc == 0 )) || { sed 's/^/    /' "$tmp/serve.log" >&2
                       fail "serve exited $rc after SIGTERM"; }
    grep -q "drained cleanly" "$tmp/serve.log" ||
        fail "serve log lacks the clean-drain marker"
}

# http OUT ARGS... — `macs http`, body to $tmp/OUT, asserting a 2xx.
http() {
    local out="$1"; shift
    "$MACS" http "$@" --port "$PORT" --retry 5 \
        >"$tmp/$out" 2>"$tmp/$out.status" ||
        { cat "$tmp/$out.status" >&2; fail "$* did not return 2xx"; }
}

echo "== server: smoke (/healthz, /metrics, /v1/analyze) =="
start_serve
http health.json GET /healthz
grep -q '"status": "ok"' "$tmp/health.json" ||
    fail "/healthz is not ok: $(cat "$tmp/health.json")"
http analyze.json POST /v1/analyze --data '{"id": 1}'
"$MACS" batch 1 --json - >"$tmp/cli.json" 2>/dev/null
cmp -s "$tmp/analyze.json" "$tmp/cli.json" ||
    fail "/v1/analyze body differs from the CLI rendering"
echo "server: /v1/analyze byte-identical to 'macs batch 1'"
http metrics.txt GET /metrics
for series in macs_server_requests_total macs_server_inflight \
    macs_server_queue_depth macs_server_rejected_total \
    macs_pipeline_jobs_total; do
    grep -q "^# TYPE $series " "$tmp/metrics.txt" ||
        fail "/metrics lacks the $series series"
done
grep -q 'macs_server_requests_total{route="/v1/analyze",status="200"} 1' \
    "$tmp/metrics.txt" || fail "/metrics did not count the analyze hit"
stop_serve
echo "server: smoke ok (clean drain)"

echo "== server: SIGTERM during an in-flight batch =="
# Every compute is slowed 300 ms so the SIGTERM provably lands while
# the batch is executing; the checkpoint must still be flushed and the
# accepted response delivered.
start_serve --checkpoint "$tmp/srv.ckpt" \
    --faults compute-delay:1:9:300
"$MACS" http POST /v1/batch --data '{"ids": [1, 2, 3]}' \
    --port "$PORT" --timeout 30000 \
    >"$tmp/drain.json" 2>"$tmp/drain.status" &
CLIENT_PID=$!
sleep 0.4 # inside job 1's injected delay
stop_serve
wait "$CLIENT_PID" ||
    fail "in-flight batch was dropped by the drain"
grep -q '"schema": "macs-batch-v1"' "$tmp/drain.json" ||
    fail "drained batch response is not a batch report"
[[ -s "$tmp/srv.ckpt" ]] || fail "checkpoint journal was not flushed"
# The journal must resume every job the drained server computed.
"$MACS" batch 1,2,3 --json - --checkpoint "$tmp/srv.ckpt" \
    >/dev/null 2>"$tmp/resume.err"
grep -q "3 record(s) resumed" "$tmp/resume.err" ||
    fail "journal did not resume the drained batch"
echo "server: drain finished in-flight work and flushed the journal"

echo "== server: invalid flag values exit 1 (usage contract) =="
# --processes/--shards/--workers reject zero (where meaningless),
# negative, and non-numeric values through the same Diagnostics
# exit-code-1 path as every other invocation error.
expect_usage_error() {
    local what="$1"; shift
    local rc=0
    "$MACS" serve "$@" >/dev/null 2>"$tmp/usage.err" || rc=$?
    (( rc == 1 )) ||
        { sed 's/^/    /' "$tmp/usage.err" >&2
          fail "$what: exit code $rc, expected 1"; }
    echo "server: $what: rc=1 ok"
}
expect_usage_error "--processes 0"        --processes 0
expect_usage_error "--processes negative" --processes -3
expect_usage_error "--processes NaN"      --processes two
expect_usage_error "--processes huge"     --processes 100000
expect_usage_error "--shards negative"    --shards -1
expect_usage_error "--shards NaN"         --shards x
expect_usage_error "--workers negative"   --workers -2
expect_usage_error "--workers NaN"        --workers many
# The thread-per-session core is gone; its flag must fail loudly
# rather than be silently ignored.
expect_usage_error "--core removed"       --core threaded
expect_usage_error "--liveness <= heartbeat" \
    --processes 2 --heartbeat-ms 200 --liveness-ms 100

echo "== server: supervised smoke (--processes 2) =="
# A 2-worker SO_REUSEPORT fleet: the port file appears only once both
# workers are serving; any worker's scrape reports fleet state; the
# analyze body stays byte-identical to the CLI; SIGTERM runs the
# rolling drain and exits 0.
start_serve --processes 2
http fleet_health.json GET /healthz
grep -q '"status": "ok"' "$tmp/fleet_health.json" ||
    fail "fleet /healthz is not ok: $(cat "$tmp/fleet_health.json")"
grep -q '"processes": 2' "$tmp/fleet_health.json" ||
    fail "fleet /healthz lacks the supervisor roll-up"
grep -q '"alive": 2' "$tmp/fleet_health.json" ||
    fail "fleet /healthz does not report both workers alive"
http fleet_analyze.json POST /v1/analyze --data '{"id": 1}'
cmp -s "$tmp/fleet_analyze.json" "$tmp/cli.json" ||
    fail "fleet /v1/analyze body differs from the CLI rendering"
http fleet_metrics.txt GET /metrics
grep -q '^macs_supervisor_processes 2' "$tmp/fleet_metrics.txt" ||
    fail "fleet /metrics lacks macs_supervisor_processes"
grep -q '^macs_supervisor_workers_alive 2' "$tmp/fleet_metrics.txt" ||
    fail "fleet /metrics lacks macs_supervisor_workers_alive"
grep -q '^macs_supervisor_degraded 0' "$tmp/fleet_metrics.txt" ||
    fail "fleet /metrics reports a degraded fleet"
grep -q 'macs_supervisor_worker_up{worker="1"} 1' \
    "$tmp/fleet_metrics.txt" ||
    fail "fleet /metrics lacks per-worker liveness labels"
stop_serve
grep -q "supervisor: rolling drain" "$tmp/serve.log" ||
    fail "fleet drain did not go through the rolling-drain path"
echo "server: supervised smoke ok (rolling drain clean)"

echo "server: all stages passed"
