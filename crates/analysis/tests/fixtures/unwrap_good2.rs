// analyze-as: crates/core/tests/unwrap_good2.rs
// Files under tests/ and examples/ are test code throughout:
// production-only rules (unwrap, worldrng, the alloc rules) do not apply.
fn t(x: Option<u32>) -> u32 {
    x.unwrap()
}
