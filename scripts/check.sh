#!/bin/sh
# check.sh — the full CI gate, runnable anywhere with a Go toolchain.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# introvet (cmd/introvet) is the repo's determinism linter: it gates
# map ranges, wall-clock reads and randomness in the solver packages.
# Stdlib-only, so it is mandatory everywhere.
go run ./cmd/introvet
# Optional deeper linters: run whichever is installed, skip otherwise
# (the GitHub Actions workflow installs pinned staticcheck and
# govulncheck; go vet + introvet are the mandatory floor).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif command -v golangci-lint >/dev/null 2>&1; then
    golangci-lint run ./...
fi
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
fi
go build ./...
go test ./...
# perfbench/ is a module of its own (it reaches the internal packages
# through a replace directive), so ./... above never compiles it: vet
# and test the benchmark harness separately, or a refactor could break
# `bash perfbench/run.sh` and stay green here.
(cd perfbench && go vet ./... && go test ./...)
go test -race ./internal/analysis ./internal/pta ./internal/cutshortcut ./internal/checkers ./internal/service ./internal/obs

# Trace-export smoke test (same commands as `make trace-smoke`): solve
# with tracing on, then validate the Chrome trace file end to end.
go run ./cmd/pta -bench hsqldb -analysis 2objH-IntroA -budget -1 \
    -trace /tmp/pta-trace-smoke.$$.json -snap-every 262144
go run ./scripts/tracecheck /tmp/pta-trace-smoke.$$.json
rm -f /tmp/pta-trace-smoke.$$.json

# Daemon smoke test: boot ptad on an ephemeral port (debug listener
# included), POST a real program, and assert a pta/v1 response comes
# back; then hit the observability surfaces.
go build -o /tmp/ptad.$$ ./cmd/ptad
/tmp/ptad.$$ -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 >/tmp/ptad.$$.log &
PTAD_PID=$!
trap 'kill $PTAD_PID 2>/dev/null || true; rm -f /tmp/ptad.$$ /tmp/ptad.$$.log' EXIT
# The first stdout line is "ptad: listening on http://HOST:PORT".
URL=""
for i in $(seq 1 50); do
    URL=$(sed -n 's/^ptad: listening on //p' /tmp/ptad.$$.log | head -n1)
    [ -n "$URL" ] && break
    sleep 0.1
done
[ -n "$URL" ]
RESP=$(curl -sS --data-binary @examples/ptalint/holder.mj "$URL/v1/analyze?spec=2objH-IntroA")
echo "$RESP" | grep -q '"schema":"pta/v1"'
echo "$RESP" | grep -q '"complete":true'
# A repeat of the same request must be served from the cache.
curl -sS --data-binary @examples/ptalint/holder.mj "$URL/v1/analyze?spec=2objH-IntroA" | grep -q '"cache":"hit"'
curl -sS "$URL/metrics" | grep -q '"solves":1'
# Observability surfaces: flights listing (idle daemon -> empty),
# Prometheus exposition by query param and by Accept header, and the
# debug listener's pprof index and retained trace window.
curl -sS "$URL/v1/flights" | grep -q '"flights":\[\]'
curl -sS "$URL/metrics?format=prometheus" | grep -q '^ptad_solves_total 1$'
curl -sS -H 'Accept: text/plain' "$URL/metrics" | grep -q '^# TYPE ptad_requests_total counter$'
DEBUG_URL=$(sed -n 's/^ptad: debug on \(http:\/\/[^ ]*\).*/\1/p' /tmp/ptad.$$.log | head -n1)
[ -n "$DEBUG_URL" ]
curl -sS "$DEBUG_URL/debug/pprof/" | grep -qi 'profile'
curl -sS "$DEBUG_URL/debug/trace" >/tmp/ptad-trace.$$.json
go run ./scripts/tracecheck -require-snapshots=false /tmp/ptad-trace.$$.json
rm -f /tmp/ptad-trace.$$.json

# The smokes below boot additional daemons; one trap cleans up all of
# them plus every scratch file.
STORE_PID="" NODEA_PID="" NODEB_PID=""
trap 'kill $PTAD_PID $STORE_PID $NODEA_PID $NODEB_PID 2>/dev/null || true; \
      rm -rf /tmp/ptad.$$ /tmp/ptad.$$.log /tmp/ptad-store.$$ \
             /tmp/ptad-store.$$.log /tmp/ptad-store2.$$.log \
             /tmp/ptad-a.$$.log /tmp/ptad-b.$$.log \
             /tmp/ptad-a.$$.err /tmp/ptad-b.$$.err \
             /tmp/ptad-fwd.$$.json /tmp/ptad-jython.$$.ir' EXIT

# wait_url blocks until a freshly booted daemon prints its listening
# line into the given log, then echoes the base URL.
wait_url() {
    _url=""
    for _i in $(seq 1 50); do
        _url=$(sed -n 's/^ptad: listening on //p' "$1" | head -n1)
        [ -n "$_url" ] && break
        sleep 0.1
    done
    [ -n "$_url" ]
    echo "$_url"
}

# Batch smoke: one program, several jobs, one POST. The envelope names
# the job count and carries a per-job result array.
BATCH=$(curl -sS -H 'Content-Type: application/json' -d '{
    "name": "batchsmoke",
    "source": "class Main { static void main() { Main m; m = new Main(); } }",
    "jobs": [{"spec": "insens"}, {"spec": "2objH"}]
}' "$URL/v1/batch")
echo "$BATCH" | grep -q '"schema":"pta/v1"'
echo "$BATCH" | grep -q '"jobs":2'
echo "$BATCH" | grep -qF '"spec":"insens"'
echo "$BATCH" | grep -qF '"spec":"2objH"'

# Streaming smoke: a benchmark-sized program with stream=1 comes back
# as NDJSON — stage events first, one terminal result event last. (The
# stronger ≥1-snapshot-before-terminal property is pinned by
# TestStreamDeliversProgress, which controls snap-every.)
go run ./scripts/suitedump jython >/tmp/ptad-jython.$$.ir
STREAM=$(curl -sS --data-binary @/tmp/ptad-jython.$$.ir \
    "$URL/v1/analyze?lang=ir&spec=insens&budget=-1&name=jython&stream=1")
echo "$STREAM" | grep -q '"event":"stage"'
echo "$STREAM" | grep -q '"event":"result"'
echo "$STREAM" | grep -q '"complete":true'

# Durable-store smoke: solve once with -cache-dir, restart on the same
# directory, and the repeat must be a cache hit with zero solves.
/tmp/ptad.$$ -addr 127.0.0.1:0 -cache-dir /tmp/ptad-store.$$ >/tmp/ptad-store.$$.log &
STORE_PID=$!
SURL=$(wait_url /tmp/ptad-store.$$.log)
curl -sS --data-binary @examples/ptalint/holder.mj "$SURL/v1/analyze?spec=2objH" | grep -q '"cache":"miss"'
kill $STORE_PID
wait $STORE_PID 2>/dev/null || true
/tmp/ptad.$$ -addr 127.0.0.1:0 -cache-dir /tmp/ptad-store.$$ >/tmp/ptad-store2.$$.log &
STORE_PID=$!
SURL=$(wait_url /tmp/ptad-store2.$$.log)
curl -sS --data-binary @examples/ptalint/holder.mj "$SURL/v1/analyze?spec=2objH" | grep -q '"cache":"hit"'
curl -sS "$SURL/metrics" | grep -q '"solves":0'
kill $STORE_PID
wait $STORE_PID 2>/dev/null || true
STORE_PID=""

# Two-node smoke: a static two-peer ring on fixed loopback ports.
# Distinct program names spread across the ring, so posting everything
# at node A must forward some requests to node B — visible in A's
# Prometheus forwarding counter.
PEER_A=127.0.0.1:18472
PEER_B=127.0.0.1:18473
PEERS="http://$PEER_A,http://$PEER_B"
/tmp/ptad.$$ -addr $PEER_A -peers "$PEERS" -self "http://$PEER_A" \
    >/tmp/ptad-a.$$.log 2>/tmp/ptad-a.$$.err &
NODEA_PID=$!
/tmp/ptad.$$ -addr $PEER_B -peers "$PEERS" -self "http://$PEER_B" \
    >/tmp/ptad-b.$$.log 2>/tmp/ptad-b.$$.err &
NODEB_PID=$!
wait_url /tmp/ptad-a.$$.log >/dev/null
wait_url /tmp/ptad-b.$$.log >/dev/null
for i in $(seq 1 16); do
    curl -sS --data-binary @examples/ptalint/holder.mj \
        "http://$PEER_A/v1/analyze?spec=insens&name=fleet$i" | grep -q '"complete":true'
done
curl -sS "http://$PEER_A/metrics?format=prometheus" \
    | grep -qF 'ptad_peer_forwarded_total{peer="http://127.0.0.1:18473"}'

# Correlation + stitching smoke: post traced introspective requests at
# node A until one lands on a name node B owns — the response's trace
# then carries two process groups ("pid":2 appears only in stitched
# documents). With that request in hand, assert the fleet-wide
# correlation story end to end: the request ID we supplied shows up in
# BOTH nodes' JSON access logs (B's with the forwarded_from hop), the
# stitched trace passes tracecheck's multi-process validation, and the
# introspection decision audit came back non-empty.
FWD_ID=""
for i in $(seq 1 16); do
    RID="smoke-$$-$i"
    curl -sS -H "X-Ptad-Request-Id: $RID" --data-binary @examples/ptalint/holder.mj \
        "http://$PEER_A/v1/analyze?spec=2objH-IntroB&name=fleet$i&stream=0&trace=1&decisions=1" \
        >/tmp/ptad-fwd.$$.json
    if grep -q '"pid":2' /tmp/ptad-fwd.$$.json; then FWD_ID=$RID; break; fi
done
[ -n "$FWD_ID" ]
grep -q "\"id\":\"$FWD_ID\"" /tmp/ptad-a.$$.err
grep -q "\"id\":\"$FWD_ID\"" /tmp/ptad-b.$$.err
grep "\"id\":\"$FWD_ID\"" /tmp/ptad-b.$$.err | grep -q '"forwarded_from"'
go run ./scripts/tracecheck -from-run -stitched -require-snapshots=false /tmp/ptad-fwd.$$.json
grep -q '"decisions":\[{' /tmp/ptad-fwd.$$.json
kill $NODEA_PID $NODEB_PID
wait $NODEA_PID $NODEB_PID 2>/dev/null || true
NODEA_PID="" NODEB_PID=""
