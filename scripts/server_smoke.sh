#!/usr/bin/env bash
# server_smoke.sh — blocking wire-level smoke of lf-server.
#
# Starts the example RESP server on loopback with flight-recorder
# tracing enabled, hammers it with 50k pipelined commands through the
# lf-bench smoke client (which verifies, command for command, that
# every one resolved as exactly ok, `-BUSY shed`, or `-BUSY rejected`,
# that the server's INFO counters agree, and that the service's own
# counters close at quiescence: `enqueued == completed + shed`, with
# `0 < inline <= enqueued` — pipelines that found their lane idle ran
# on the connection thread), shuts the server down over the wire, and
# finally has `lf-trace check` audit the dump the server wrote on exit,
# inline legs' events included.
#
#   ./scripts/server_smoke.sh             # default port 7463, 50k ops
#   SMOKE_PORT=7500 SMOKE_OPS=100000 ./scripts/server_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${SMOKE_PORT:-7463}"
OPS="${SMOKE_OPS:-50000}"
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

cargo build --release --example resp_server -p lockfree-lists
cargo build --release -p lf-bench --bin resp_smoke
cargo build --release -p lf-trace

LF_TRACE_DUMP="$SCRATCH/server_trace.jsonl" \
    ./target/release/examples/resp_server "127.0.0.1:$PORT" \
    > "$SCRATCH/server.log" 2>&1 &
SERVER_PID=$!

# The server prints its address once the listener is bound.
for _ in $(seq 1 100); do
    grep -q listening "$SCRATCH/server.log" 2>/dev/null && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server exited before binding:" >&2
        cat "$SCRATCH/server.log" >&2
        exit 1
    fi
    sleep 0.1
done

# --shutdown stops the server over the wire; its exit finalizes the
# trace dump.
./target/release/resp_smoke "127.0.0.1:$PORT" --ops "$OPS" --shutdown
wait "$SERVER_PID"
cat "$SCRATCH/server.log"

test -s "$SCRATCH/server_trace.jsonl"
./target/release/lf-trace check "$SCRATCH/server_trace.jsonl"
echo "server smoke: OK"
