//! Fuzz target: the k-d store against its oracles under arbitrary records
//! and query rectangles.
//!
//! The invariant body lives in the library
//! (`mind_store::fuzz_store_range`) so a crashing input replays as a plain
//! unit test: bytes decode into a dimensionality, a rect, and a record
//! set cycled past the store's seals and a merge; the k-d store filled by
//! single inserts, the k-d store filled by `insert_batch`, the naive k-d
//! tree and brute force must agree on `range_ids`.

libfuzzer_sys::fuzz_target!(|data: &[u8]| {
    mind_store::fuzz_store_range(data);
});
