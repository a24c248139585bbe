#!/usr/bin/env bash
# Fuzz smoke gate: for each target, replay the committed corpus, then run
# the deterministic generation loop (vendor/libfuzzer-sys stand-in, seeded
# xorshift64*) under a hard per-target timeout. Same iteration count +
# seed on every run, so a failure is always reproducible with the printed
# command line.
#
# Targets:
#   frame_decode — TCP frame codec round-trip invariant
#   store_range  — the k-d store differentially (single inserts vs one
#                  insert_batch vs the naive k-d oracle vs brute force) on
#                  arbitrary records + rects
#   batch_decode — MindPayload codec: arbitrary bytes reject cleanly or
#                  decode to a payload whose re-encoding is a canonical
#                  fixed point with an exact wire_size (batched insert
#                  frames seeded in the corpus)
#   wire_decode  — full transport envelope (sender + OverlayMsg): reject
#                  cleanly or re-encode to a canonical fixed point, with
#                  an exact wire_size on any carried payload
#   cut_columns  — CutTree wire-column validation (from_columns):
#                  arbitrary bounds/axis/threshold columns reject cleanly
#                  or build a tree whose leaf memo, code walk, and point
#                  descent all agree
#
# A machine with the real cargo-fuzz toolchain runs the same targets with
#   cargo fuzz run <target>
# after swapping fuzz/Cargo.toml's libfuzzer-sys path dep for the registry
# crate.
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS="${FUZZ_SMOKE_ITERS:-200000}"
SEED="${FUZZ_SMOKE_SEED:-20260807}"
TIMEOUT_S="${FUZZ_SMOKE_TIMEOUT:-60}"

cargo build --quiet --release --manifest-path fuzz/Cargo.toml

for TARGET in frame_decode store_range batch_decode wire_decode cut_columns; do
    BIN="fuzz/target/release/$TARGET"

    echo "fuzz-smoke[$TARGET]: replaying committed corpus"
    "$BIN" fuzz/corpus/"$TARGET"/*

    echo "fuzz-smoke[$TARGET]: $ITERS generated inputs, seed $SEED, ${TIMEOUT_S}s cap"
    timeout "$TIMEOUT_S" "$BIN" --smoke "$ITERS" "$SEED"
done
