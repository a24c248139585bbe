#!/usr/bin/env bash
# TCP runtime smoke gate: a real 4-process mind-node cluster on localhost,
# driven by mind-loadgen over the control protocol. Passes only if the
# nonzero row count it inserted is conserved exactly (every acked row
# stored once), every query completes, the fleet audit is clean, and
# every node process exits 0 after the control-protocol shutdown (no
# signals involved).
#
#   ./scripts/tcp_smoke.sh [inserts]
#
# The default is sized for CI (50k rows). How fast the socket plane
# ingests is the benchmark's `tcp_ingest/rows_per_s`, not this script's.
set -euo pipefail
cd "$(dirname "$0")/.."

INSERTS="${1:-50000}"
PORT_BASE="${TCP_SMOKE_PORT_BASE:-47610}"
WORK="$(mktemp -d)"
SPEC="$WORK/cluster.txt"
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

cargo build --quiet --release -p mind-runtime --bins

{
    echo "# tcp_smoke cluster: id node_addr control_addr"
    for i in 0 1 2 3; do
        echo "$i 127.0.0.1:$((PORT_BASE + 2 * i)) 127.0.0.1:$((PORT_BASE + 2 * i + 1))"
    done
} > "$SPEC"

for i in 0 1 2 3; do
    ./target/release/mind-node --id "$i" --cluster "$SPEC" \
        > "$WORK/node$i.log" 2>&1 &
    PIDS+=($!)
done

echo "tcp-smoke: 4 nodes up, loading $INSERTS rows"
timeout 120 ./target/release/mind-loadgen --cluster "$SPEC" \
    --inserts "$INSERTS" --shutdown | tee "$WORK/report.txt"

grep -q "^inserts_total=[1-9][0-9]*$" "$WORK/report.txt"
grep -q "^conserved=true$" "$WORK/report.txt"
grep -q "^audit_clean=true$" "$WORK/report.txt"

# The shutdown was sent over the control protocol; every node must exit 0
# on its own (SIGTERM-free shutdown proof).
for i in 0 1 2 3; do
    if ! wait "${PIDS[$i]}"; then
        echo "tcp-smoke: node $i exited nonzero" >&2
        cat "$WORK/node$i.log" >&2
        exit 1
    fi
done
PIDS=()
echo "tcp-smoke: ok"
