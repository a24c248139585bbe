// analyze-as: crates/store/src/mem.rs
pub fn scan(records: &[Arc<Record>]) -> Vec<Arc<Record>> {
    records.iter().map(Arc::clone).collect()
}
