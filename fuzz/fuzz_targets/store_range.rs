//! Fuzz target: the k-d store against brute force under arbitrary records
//! and query rectangles.
//!
//! The invariant body lives in the library
//! (`mind_store::fuzz_store_range`) so a crashing input replays as a plain
//! unit test: bytes decode into a dimensionality, a rect, and a record
//! set cycled past the store's seals and a merge; the k-d store filled by
//! single inserts and the k-d store filled by `insert_batch` must each
//! agree with brute force on `range_ids`, and both must return every
//! matching row whole from `range_records`.

libfuzzer_sys::fuzz_target!(|data: &[u8]| {
    mind_store::fuzz_store_range(data);
});
