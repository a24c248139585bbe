#!/usr/bin/env bash
# Runs the store and histogram unit suites under Miri (undefined-behavior
# interpreter). These two crates own the repo's densest pointer/index
# arithmetic: the columnar SoA k-d tree (subtree ranges over parallel
# column vectors) and the flat cut-tree layout (preorder index math).
#
# Skip-list: Miri executes 50-200x slower than native, so the large
# randomized/property workloads are excluded by name. Everything skipped
# here still runs natively in the build-and-test job; Miri's job is UB
# detection on the remaining (still branch-complete) small tests.
#
#   prop_                                — proptest suites: hundreds of cases each
#   random_queries_match_brute_force     — 2000-point randomized k-d workload
#   absorb_matches_fresh_build           — 1500-point rebuild comparison
#   range_sees_buffered_and_rebuilt_records — 2000-insert rebuild threshold walk
#   approx_bytes_incremental_matches_recompute — 1000-insert byte accounting
#   balanced_histogram_tracks_points     — 1000-point balanced-cut build
#   iteration_is_insertion_order_independent — ~2200-insert replay check
set -euo pipefail
cd "$(dirname "$0")/.."

SKIPS=(
    --skip prop_
    --skip random_queries_match_brute_force
    --skip absorb_matches_fresh_build
    --skip range_sees_buffered_and_rebuilt_records
    --skip approx_bytes_incremental_matches_recompute
    --skip balanced_histogram_tracks_points
    --skip iteration_is_insertion_order_independent
)

for pkg in mind-store mind-histogram; do
    echo "miri: $pkg --lib"
    cargo +nightly miri test -p "$pkg" --lib -- "${SKIPS[@]}"
done
