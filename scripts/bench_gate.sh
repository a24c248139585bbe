#!/usr/bin/env bash
# Perf gates: measure the flat-vs-naive ratios for the store and route
# planes and diff them against the committed baselines (BENCH_store.json,
# BENCH_route.json), then re-run the churn-world scale sweep against
# BENCH_sim.json. (The figures have their own gate, exact rather than
# banded: `mind-figures all --check results`.)
#
# Each gate fails when a gated speedup drops below its hard floor (2x on
# the store/route planes) or regresses more than its tolerance against
# its baseline, or when a cost ratio drifts past its ceiling. Ratios — not absolute nanoseconds — are
# compared, so the gates are portable across machines.
#
# The sim gate (bench_sim --check) replays the 100/1k/10k-node churn
# worlds: wall-clock metrics are banded like the other gates, but the
# deterministic counters (events, pending peak, rows) must not regress
# past their ceilings, and two floors are hard — the 1k world must finish
# its sim-hour inside the fixed budget and the 10k world must complete.
#
# Refresh a baseline after an intentional perf change with:
#   cargo run --release -p mind-bench --bin bench_store -- --write BENCH_store.json
#   cargo run --release -p mind-bench --bin bench_route -- --write BENCH_route.json
#   cargo run --release -p mind-bench --bin bench_sim -- --write BENCH_sim.json
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p mind-bench --bin bench_store --bin bench_route --bin bench_sim

status=0
./target/release/bench_store --check BENCH_store.json || status=1
./target/release/bench_route --check BENCH_route.json || status=1
./target/release/bench_sim --check BENCH_sim.json || status=1
exit "$status"
